package chapel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// sumReduce, minReduce and maxReduce are `+ reduce`, `min reduce` and
// `max reduce` over e.
func sumReduce(e Expr, tasks int) Value { return Reduce(NewSumOp(), e, tasks) }
func minReduce(e Expr, tasks int) Value { return Reduce(NewMinOp(), e, tasks) }
func maxReduce(e Expr, tasks int) Value { return Reduce(NewMaxOp(), e, tasks) }

func TestSumReduceIntAndReal(t *testing.T) {
	ints := Over(IntArray(1, 2, 3, 4, 5))
	if got := sumReduce(ints, 4).(*Int).Val; got != 15 {
		t.Fatalf("int sum = %d", got)
	}
	reals := Over(RealArray(0.5, 1.5, 2.0))
	if got := sumReduce(reals, 2).(*Real).Val; got != 4.0 {
		t.Fatalf("real sum = %v", got)
	}
	// Mixed: int op combined with reals widens to real.
	op := NewSumOp()
	op.Accumulate(&Int{Val: 2})
	op.Accumulate(&Real{Val: 0.5})
	if got := op.Generate().(*Real).Val; got != 2.5 {
		t.Fatalf("mixed sum = %v", got)
	}
	mustPanic(t, "sum over bool", func() { sumReduce(Over(NewArray(ArrayType(BoolType(), 1, 2))), 1) })
	mustPanic(t, "sum accumulate string", func() { NewSumOp().Accumulate(NewString(StringType(2), "a")) })
}

func TestMinMaxReduce(t *testing.T) {
	e := Over(IntArray(5, -3, 9, 0))
	if got := minReduce(e, 3).(*Int).Val; got != -3 {
		t.Fatalf("min = %d", got)
	}
	if got := maxReduce(e, 3).(*Int).Val; got != 9 {
		t.Fatalf("max = %d", got)
	}
	r := Over(RealArray(2.5, -1.25, 7))
	if got := minReduce(r, 2).(*Real).Val; got != -1.25 {
		t.Fatalf("real min = %v", got)
	}
	if got := maxReduce(r, 2).(*Real).Val; got != 7 {
		t.Fatalf("real max = %v", got)
	}
	// Empty input: identity (±Inf as real).
	if got := minReduce(Over(RealArray()), 2).(*Real).Val; !math.IsInf(got, 1) {
		t.Fatalf("empty min = %v", got)
	}
	mustPanic(t, "min over bool", func() { NewMinOp().Accumulate(&Bool{}) })
	mustPanic(t, "extremum foreign combine", func() { NewMinOp().Combine(NewSumOp()) })
}

func TestReduceOverZipExpr(t *testing.T) {
	// The paper's §IV-B example: min reduce A+B.
	a := RealArray(5, 2, 8)
	b := RealArray(1, 9, -4)
	got := minReduce(Zip(OpPlus, Over(a), Over(b)), 2).(*Real).Val
	if got != 4 { // min(6, 11, 4)
		t.Fatalf("min reduce A+B = %v", got)
	}
	// Int zips stay int.
	ia, ib := IntArray(1, 2), IntArray(10, 20)
	if got := sumReduce(Zip(OpTimes, Over(ia), Over(ib)), 1).(*Int).Val; got != 50 {
		t.Fatalf("sum reduce A*B = %v", got)
	}
	if got := sumReduce(Zip(OpMinus, Over(ib), Over(ia)), 1).(*Int).Val; got != 27 {
		t.Fatalf("sum reduce B-A = %v", got)
	}
	mustPanic(t, "length mismatch", func() { Zip(OpPlus, Over(RealArray(1)), Over(RealArray(1, 2))) })
	mustPanic(t, "non-numeric zip", func() {
		ba := NewArray(ArrayType(BoolType(), 1, 1))
		Zip(OpPlus, Over(ba), Over(ba))
	})
}

func TestBinOpString(t *testing.T) {
	if OpPlus.String() != "+" || OpMinus.String() != "-" || OpTimes.String() != "*" {
		t.Fatal("binop strings")
	}
	if BinOp(9).String() != "binop(9)" {
		t.Fatal("unknown binop")
	}
}

func TestRangeExpr(t *testing.T) {
	e := RangeExpr{Lo: 3, Hi: 7}
	if e.Len() != 5 || e.Index(0).(*Int).Val != 3 || e.Index(4).(*Int).Val != 7 {
		t.Fatal("range expr")
	}
	if (RangeExpr{Lo: 5, Hi: 4}).Len() != 0 {
		t.Fatal("empty range")
	}
	if got := sumReduce(RangeExpr{Lo: 1, Hi: 100}, 4).(*Int).Val; got != 5050 {
		t.Fatalf("sum 1..100 = %d", got)
	}
}

func TestMapExpr(t *testing.T) {
	squares := MapOver(RangeExpr{Lo: 1, Hi: 5}, IntType(), func(v Value) Value {
		x := v.(*Int).Val
		return &Int{Val: x * x}
	})
	if got := sumReduce(squares, 2).(*Int).Val; got != 55 {
		t.Fatalf("sum of squares = %d", got)
	}
	mustPanic(t, "MapOver nil", func() { MapOver(RangeExpr{}, nil, nil) })
}

func TestReduceTaskCountEdgeCases(t *testing.T) {
	e := Over(IntArray(1, 2, 3))
	// tasks > len collapses to len; tasks < 1 uses GOMAXPROCS.
	if sumReduce(e, 100).(*Int).Val != 6 || sumReduce(e, 0).(*Int).Val != 6 {
		t.Fatal("task clamping")
	}
	if sumReduce(Over(IntArray()), 4).(*Int).Val != 0 {
		t.Fatal("empty reduce")
	}
}

// kmeansLikeOp is a user-defined reduction with array state, mirroring the
// shape of the paper's Fig. 3 k-means reduction class: it histograms values
// into k buckets and sums each bucket.
type kmeansLikeOp struct {
	k      int
	counts []int64
	sums   []float64
}

func newKmeansLikeOp(k int) *kmeansLikeOp {
	return &kmeansLikeOp{k: k, counts: make([]int64, k), sums: make([]float64, k)}
}

func (o *kmeansLikeOp) Clone() ReduceScanOp { return newKmeansLikeOp(o.k) }

func (o *kmeansLikeOp) Accumulate(x Value) {
	v := AsReal(x)
	b := int(v) % o.k
	if b < 0 {
		b += o.k
	}
	o.counts[b]++
	o.sums[b] += v
}

func (o *kmeansLikeOp) Combine(other ReduceScanOp) {
	x := other.(*kmeansLikeOp)
	for i := 0; i < o.k; i++ {
		o.counts[i] += x.counts[i]
		o.sums[i] += x.sums[i]
	}
}

func (o *kmeansLikeOp) Generate() Value {
	out := NewArray(ArrayType(RealType(), 1, o.k))
	for i := 0; i < o.k; i++ {
		out.SetAt(i+1, &Real{Val: o.sums[i]})
	}
	return out
}

func TestUserDefinedReduction(t *testing.T) {
	vals := make([]float64, 999)
	for i := range vals {
		vals[i] = float64(i)
	}
	e := Over(RealArray(vals...))
	seq := ReduceSeq(newKmeansLikeOp(7), e).(*Array)
	for _, tasks := range []int{1, 2, 4, 8} {
		par := Reduce(newKmeansLikeOp(7), e, tasks).(*Array)
		if !DeepEqual(seq, par) {
			t.Fatalf("tasks=%d: parallel user reduction diverges", tasks)
		}
	}
}

// Property: parallel Reduce equals sequential ReduceSeq for integer sums,
// min, and max over arbitrary data and task counts.
func TestPropertyReduceMatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw uint16, tasksRaw uint8) bool {
		n := int(nRaw % 3000)
		tasks := int(tasksRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(rng.Intn(20001) - 10000)
		}
		e := Over(IntArray(vals...))
		for _, mk := range []func() ReduceScanOp{
			func() ReduceScanOp { return NewSumOp() },
			func() ReduceScanOp { return NewMinOp() },
			func() ReduceScanOp { return NewMaxOp() },
		} {
			if !DeepEqual(ReduceSeq(mk(), e), Reduce(mk(), e, tasks)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
