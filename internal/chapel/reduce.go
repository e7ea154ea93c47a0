package chapel

import (
	"math"
	"runtime"
	"sync"
)

// ReduceScanOp is the paper's Fig. 2 reduction class: user-defined and
// built-in reductions subclass ReduceScanOp and provide the three stages —
// Accumulate (local reduction, one element at a time), Combine (merge
// another task's local result into this one), and Generate (produce the
// final result).
//
// Clone returns a fresh op in its identity state; the runtime creates one
// clone per parallel task, exactly as Chapel's compiler instantiates one
// ReduceScanOp per task.
type ReduceScanOp interface {
	// Clone returns a new op of the same kind in its identity state.
	Clone() ReduceScanOp
	// Accumulate folds one input element into the local state.
	Accumulate(x Value)
	// Combine folds another op's local state into this one. The argument
	// is always an op produced by Clone of the same receiver kind.
	Combine(other ReduceScanOp)
	// Generate returns the final result value.
	Generate() Value
}

// SumOp is Chapel's `+ reduce`, the paper's Fig. 2 example. It sums
// numeric elements; the result is real if any accumulated element was real,
// mirroring `_sum_type(eltType)`.
type SumOp struct {
	real bool
	iv   int64
	rv   float64
}

// NewSumOp returns a sum reduction in its identity state.
func NewSumOp() *SumOp { return &SumOp{} }

// Clone implements ReduceScanOp.
func (o *SumOp) Clone() ReduceScanOp { return &SumOp{} }

// Accumulate implements ReduceScanOp: value = value + x.
func (o *SumOp) Accumulate(x Value) {
	switch v := x.(type) {
	case *Int:
		if o.real {
			o.rv += float64(v.Val)
		} else {
			o.iv += v.Val
		}
	case *Real:
		if !o.real {
			o.real = true
			o.rv = float64(o.iv)
			o.iv = 0
		}
		o.rv += v.Val
	default:
		panic("chapel: SumOp over non-numeric " + x.Type().String())
	}
}

// Combine implements ReduceScanOp: value = value + other.value.
func (o *SumOp) Combine(other ReduceScanOp) {
	x := other.(*SumOp)
	if x.real {
		o.Accumulate(&Real{Val: x.rv})
	} else {
		o.Accumulate(&Int{Val: x.iv})
	}
}

// Generate implements ReduceScanOp.
func (o *SumOp) Generate() Value {
	if o.real {
		return &Real{Val: o.rv}
	}
	return &Int{Val: o.iv}
}

// MinOp is Chapel's `min reduce` over numeric elements.
type MinOp struct{ extremum }

// NewMinOp returns a min reduction in its identity state.
func NewMinOp() *MinOp {
	return &MinOp{extremum{best: math.Inf(1), better: func(a, b float64) bool { return a < b }}}
}

// Clone implements ReduceScanOp.
func (o *MinOp) Clone() ReduceScanOp { return NewMinOp() }

// MaxOp is Chapel's `max reduce` over numeric elements.
type MaxOp struct{ extremum }

// NewMaxOp returns a max reduction in its identity state.
func NewMaxOp() *MaxOp {
	return &MaxOp{extremum{best: math.Inf(-1), better: func(a, b float64) bool { return a > b }}}
}

// Clone implements ReduceScanOp.
func (o *MaxOp) Clone() ReduceScanOp { return NewMaxOp() }

// extremum is the shared state of min/max reductions. It tracks whether any
// integer element was seen so Generate can return an Int when the input was
// all-integer.
type extremum struct {
	best    float64
	sawReal bool
	init    bool
	better  func(a, b float64) bool
}

// Accumulate folds one numeric element.
func (o *extremum) Accumulate(x Value) {
	var v float64
	switch t := x.(type) {
	case *Int:
		v = float64(t.Val)
	case *Real:
		v = t.Val
		o.sawReal = true
	default:
		panic("chapel: min/max over non-numeric " + x.Type().String())
	}
	o.init = true
	if o.better(v, o.best) {
		o.best = v
	}
}

// Combine merges another extremum of the same direction.
func (o *extremum) Combine(other ReduceScanOp) {
	var x *extremum
	switch t := other.(type) {
	case *MinOp:
		x = &t.extremum
	case *MaxOp:
		x = &t.extremum
	default:
		panic("chapel: extremum.Combine with foreign op")
	}
	if !x.init {
		return
	}
	o.sawReal = o.sawReal || x.sawReal
	o.init = true
	if o.better(x.best, o.best) {
		o.best = x.best
	}
}

// Generate returns the extremum, as Int when all elements were ints.
func (o *extremum) Generate() Value {
	if !o.sawReal && o.init {
		return &Int{Val: int64(o.best)}
	}
	return &Real{Val: o.best}
}

// Reduce evaluates `op reduce expr` with the global-view abstraction: the
// input is split among tasks, each task accumulates its split into a clone
// of op, clones are combined in task order, and Generate produces the
// result. tasks < 1 selects GOMAXPROCS. The combine order is deterministic
// for a fixed task count.
func Reduce(op ReduceScanOp, expr Expr, tasks int) Value {
	if tasks < 1 {
		tasks = runtime.GOMAXPROCS(0)
	}
	n := expr.Len()
	if tasks > n {
		tasks = n
	}
	if tasks <= 1 {
		local := op.Clone()
		accumulateRange(local, expr, 0, n)
		op.Combine(local)
		return op.Generate()
	}
	locals := make([]ReduceScanOp, tasks)
	var wg sync.WaitGroup
	base, extra := n/tasks, n%tasks
	begin := 0
	for t := 0; t < tasks; t++ {
		size := base
		if t < extra {
			size++
		}
		lo, hi := begin, begin+size
		begin = hi
		locals[t] = op.Clone()
		wg.Add(1)
		go func(t, lo, hi int) {
			defer wg.Done()
			accumulateRange(locals[t], expr, lo, hi)
		}(t, lo, hi)
	}
	wg.Wait()
	for _, l := range locals {
		op.Combine(l)
	}
	return op.Generate()
}

func accumulateRange(op ReduceScanOp, expr Expr, lo, hi int) {
	for i := lo; i < hi; i++ {
		op.Accumulate(expr.Index(i))
	}
}

// ReduceSeq is the sequential reference evaluation of `op reduce expr`,
// used by tests to pin down semantics.
func ReduceSeq(op ReduceScanOp, expr Expr) Value {
	accumulateRange(op, expr, 0, expr.Len())
	return op.Generate()
}
