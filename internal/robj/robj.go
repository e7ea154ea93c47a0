// Package robj implements the FREERIDE reduction object and the
// shared-memory parallelization techniques used to update it.
//
// In FREERIDE the reduction object is declared explicitly by the programmer,
// maintained in main memory throughout execution, and updated element-wise
// by the per-split reduction function. The middleware offers several
// shared-memory techniques for those concurrent updates (Jin & Agrawal,
// SDM'02): full replication of the object per thread, full locking with one
// lock per element, optimized full locking where the lock is co-located with
// the element on the same cache line, and cache-sensitive (fixed) locking
// with a small pool of locks. This package implements all four plus a
// Go-native atomic-CAS strategy as an extension.
//
// Addressing follows the paper's two-level scheme: an object is a set of
// groups, each with a fixed number of elements, and accumulate(group, elem,
// value) updates one cell. Cells are float64 and are merged with a single
// associative Op chosen at allocation (sum, min, or max).
package robj

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"chapelfreeride/internal/obs"
)

// Contention counters, always-on (ISSUE: the paper's §V names
// reduction-object access as one of the three overhead sources; these make
// it observable per strategy). Updates are counted in per-worker padded
// slots on the Object and flushed here at Merge, so the hot path never
// touches a shared cache line; lock waits and CAS retries increment global
// counters only on the already-contended path.
var (
	mUpdates  = map[Strategy]*obs.Counter{}
	mLockWait = map[Strategy]*obs.Counter{}
	mCASRetry = obs.Default.Counter("robj_cas_retries_total",
		"failed compare-and-swap attempts retried by the atomic strategy")
	mAllocs = obs.Default.Counter("robj_allocs_total", "reduction objects allocated")
	mMerges = obs.Default.Counter("robj_merges_total", "local combination (Merge) passes")
	// Lock-wait and merge latency distributions: the counters above say how
	// often contention happened, the histograms say how long it cost — the
	// signal the auto-tuner needs to decide replication vs locking.
	hLockWait = map[Strategy]*obs.Histogram{}
	hMerge    = obs.Default.Histogram("robj_merge_duration_seconds",
		"local combination (Merge) wall time per pass")
)

func init() {
	for _, s := range Strategies() {
		label := obs.Label{Key: "strategy", Value: s.String()}
		mUpdates[s] = obs.Default.Counter("robj_updates_total",
			"reduction-object cell updates (Accumulate calls)", label)
		mLockWait[s] = obs.Default.Counter("robj_lock_waits_total",
			"Accumulate calls that found their cell lock held", label)
		hLockWait[s] = obs.Default.Histogram("robj_lock_wait_seconds",
			"time spent blocked acquiring a contended cell lock", label)
	}
}

// Op is the associative, commutative operator applied by Accumulate and by
// the local/global combination phases.
type Op int

const (
	// OpAdd accumulates by addition; identity 0.
	OpAdd Op = iota
	// OpMin keeps the minimum; identity +Inf.
	OpMin
	// OpMax keeps the maximum; identity -Inf.
	OpMax
)

// String returns the operator name.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Identity returns the operator's identity element.
func (o Op) Identity() float64 {
	switch o {
	case OpMin:
		return math.Inf(1)
	case OpMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

// Apply combines two values under the operator.
func (o Op) Apply(a, b float64) float64 {
	switch o {
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	default:
		return a + b
	}
}

// Strategy selects the shared-memory technique for concurrent updates.
type Strategy int

const (
	// FullReplication gives every thread a private copy of the object;
	// copies are merged in the local-combination phase.
	FullReplication Strategy = iota
	// FullLocking shares one copy guarded by one lock per element, with
	// locks stored in a separate array.
	FullLocking
	// OptimizedFullLocking shares one copy with each lock co-located with
	// its element (padded to a cache line) to halve the cache misses per
	// update.
	OptimizedFullLocking
	// FixedLocking (cache-sensitive locking) shares one copy guarded by a
	// fixed pool of locks; element i maps to lock i mod poolSize.
	FixedLocking
	// AtomicCAS shares one copy updated with compare-and-swap on the raw
	// float bits. Not in the original FREERIDE; a Go-native extension.
	AtomicCAS
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case FullReplication:
		return "replication"
	case FullLocking:
		return "full-locking"
	case OptimizedFullLocking:
		return "opt-locking"
	case FixedLocking:
		return "fixed-locking"
	case AtomicCAS:
		return "atomic"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Strategies lists every strategy, for sweeps and tests.
func Strategies() []Strategy {
	return []Strategy{FullReplication, FullLocking, OptimizedFullLocking, FixedLocking, AtomicCAS}
}

// ParseStrategy resolves a display name ("replication", "atomic", ...) back
// to its Strategy — the inverse of String, for config files and job params.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return FullReplication, fmt.Errorf("robj: unknown strategy %q (want replication, full-locking, opt-locking, fixed-locking, or atomic)", name)
}

// fixedLockPool is the lock-pool size for FixedLocking.
const fixedLockPool = 64

// Object is a reduction object: Groups × ElemsPerGroup float64 cells updated
// concurrently under the chosen Strategy and merged with the chosen Op.
//
// Allocate with Alloc, update with Accumulate from worker goroutines, then
// call Merge once (single-threaded or internally parallel) before reading
// results with Get or Snapshot.
type Object struct {
	groups   int
	elems    int
	op       Op
	strategy Strategy
	workers  int

	// FullReplication: one flat copy per worker.
	replicas [][]float64

	// Shared-copy strategies.
	shared []float64       // FullLocking, FixedLocking
	locks  []sync.Mutex    // FullLocking: len == cells; FixedLocking: len == pool
	padded []paddedCell    // OptimizedFullLocking
	bits   []atomic.Uint64 // AtomicCAS

	merged []float64 // final values after Merge
	spare  []float64 // retired merged buffer, reused by the next Merge
	done   bool

	// updates holds one padded per-worker update count, flushed to the
	// global per-strategy counter at Merge. Plain (non-atomic) increments
	// are safe because each worker id is owned by one goroutine — the same
	// contract FullReplication's replicas already rely on.
	updates []padCount

	// Counters resolved once at Alloc so Accumulate never does map lookups.
	updatesC  *obs.Counter
	lockWaitC *obs.Counter
	lockWaitH *obs.Histogram
}

// padCount pads a per-worker counter to its own cache line to avoid false
// sharing between workers on the Accumulate hot path.
type padCount struct {
	n int64
	_ [56]byte
}

// paddedCell co-locates a cell's lock with its value and pads the pair to a
// 64-byte cache line, mirroring the "optimized full locking" layout.
type paddedCell struct {
	mu  sync.Mutex
	val float64
	_   [48]byte
}

// Alloc creates a reduction object with the given shape for the given number
// of worker threads. It mirrors FREERIDE's reduction_object_alloc: every
// element gets a unique (group, elem) ID. Cells start at op's identity.
func Alloc(strategy Strategy, op Op, groups, elems, workers int) (*Object, error) {
	if groups <= 0 || elems <= 0 {
		return nil, fmt.Errorf("robj: invalid shape %dx%d", groups, elems)
	}
	if workers < 1 {
		workers = 1
	}
	o := &Object{groups: groups, elems: elems, op: op, strategy: strategy, workers: workers}
	o.updates = make([]padCount, workers)
	o.updatesC = mUpdates[strategy]
	o.lockWaitC = mLockWait[strategy]
	o.lockWaitH = hLockWait[strategy]
	cells := groups * elems
	id := op.Identity()
	fill := func(s []float64) {
		for i := range s {
			s[i] = id
		}
	}
	switch strategy {
	case FullReplication:
		o.replicas = make([][]float64, workers)
		for w := range o.replicas {
			o.replicas[w] = make([]float64, cells)
			fill(o.replicas[w])
		}
	case FullLocking:
		o.shared = make([]float64, cells)
		fill(o.shared)
		o.locks = make([]sync.Mutex, cells)
	case OptimizedFullLocking:
		o.padded = make([]paddedCell, cells)
		for i := range o.padded {
			o.padded[i].val = id
		}
	case FixedLocking:
		o.shared = make([]float64, cells)
		fill(o.shared)
		o.locks = make([]sync.Mutex, fixedLockPool)
	case AtomicCAS:
		o.bits = make([]atomic.Uint64, cells)
		b := math.Float64bits(id)
		for i := range o.bits {
			o.bits[i].Store(b)
		}
	default:
		return nil, fmt.Errorf("robj: unknown strategy %v", strategy)
	}
	mAllocs.Inc()
	return o, nil
}

// Groups reports the number of groups.
func (o *Object) Groups() int { return o.groups }

// ElemsPerGroup reports the number of elements per group.
func (o *Object) ElemsPerGroup() int { return o.elems }

// Op reports the combine operator.
func (o *Object) Op() Op { return o.op }

// Strategy reports the sharing strategy.
func (o *Object) Strategy() Strategy { return o.strategy }

// Workers reports the worker count the object was allocated for.
func (o *Object) Workers() int { return o.workers }

// cell computes the flat cell index, panicking on out-of-range coordinates —
// an out-of-range update is a programming error in the reduction function.
// Translated kernels never reach this panic: core.Verify proves the object
// shape (FRV007) and every accumulate target against it at translate time,
// so the check only guards hand-written reduction functions.
func (o *Object) cell(group, elem int) int {
	if group < 0 || group >= o.groups || elem < 0 || elem >= o.elems {
		panic(fmt.Sprintf("robj: accumulate out of range: group=%d elem=%d shape=%dx%d",
			group, elem, o.groups, o.elems))
	}
	return group*o.elems + elem
}

// waitLock acquires l on the already-contended path: the failed TryLock has
// established contention, so the two clock reads here time only waits that
// actually blocked — the uncontended fast path never reaches this function.
func (o *Object) waitLock(l *sync.Mutex) {
	o.lockWaitC.Inc()
	t := time.Now()
	l.Lock()
	o.lockWaitH.ObserveDuration(time.Since(t))
}

// Accumulate applies the object's operator to cell (group, elem) with v, on
// behalf of worker w. Safe for concurrent use by distinct workers. It mirrors
// FREERIDE's accumulate(int, int, void* value).
func (o *Object) Accumulate(w, group, elem int, v float64) {
	i := o.cell(group, elem)
	o.updates[w].n++
	switch o.strategy {
	case FullReplication:
		r := o.replicas[w]
		r[i] = o.op.Apply(r[i], v)
	case FullLocking:
		l := &o.locks[i]
		if !l.TryLock() {
			o.waitLock(l)
		}
		o.shared[i] = o.op.Apply(o.shared[i], v)
		l.Unlock()
	case OptimizedFullLocking:
		c := &o.padded[i]
		if !c.mu.TryLock() {
			o.waitLock(&c.mu)
		}
		c.val = o.op.Apply(c.val, v)
		c.mu.Unlock()
	case FixedLocking:
		l := &o.locks[i%len(o.locks)]
		if !l.TryLock() {
			o.waitLock(l)
		}
		o.shared[i] = o.op.Apply(o.shared[i], v)
		l.Unlock()
	case AtomicCAS:
		b := &o.bits[i]
		for {
			old := b.Load()
			next := math.Float64bits(o.op.Apply(math.Float64frombits(old), v))
			if b.CompareAndSwap(old, next) {
				return
			}
			mCASRetry.Inc()
		}
	}
}

// MergeDense folds src into dst cell-by-cell under op. Cells of src holding
// op's identity are skipped: the identity is, by definition, a no-op under
// Apply, and skipping it keeps sparse worker-local blocks (a kmeans split
// that touched few clusters) from dirtying untouched cache lines in dst.
// Both slices must have the same length.
func MergeDense(op Op, dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("robj: MergeDense length mismatch %d vs %d", len(dst), len(src)))
	}
	id := op.Identity()
	for i, v := range src {
		if v != id {
			dst[i] = op.Apply(dst[i], v)
		}
	}
}

// AccumulateBlock folds a worker-local dense block (group-major, exactly
// groups×elems cells, identity-valued where untouched) into the object on
// behalf of worker w. It is the bulk counterpart of Accumulate: where the
// per-element path pays one lock acquisition or CAS loop per update, the
// block path pays one synchronization event per cell-range per flush —
// FullReplication merges lock-free into worker w's replica, the full/padded
// locking strategies take each touched cell's lock exactly once, FixedLocking
// acquires each pool lock once and sweeps all of its cells under it, and
// AtomicCAS runs one CAS loop per touched cell. Identity-valued cells are
// skipped everywhere (see MergeDense). Safe for concurrent use by distinct
// workers.
func (o *Object) AccumulateBlock(w int, block []float64) {
	cells := o.groups * o.elems
	if len(block) != cells {
		panic(fmt.Sprintf("robj: AccumulateBlock got %d cells, object has %d", len(block), cells))
	}
	id := o.op.Identity()
	switch o.strategy {
	case FullReplication:
		MergeDense(o.op, o.replicas[w], block)
	case FullLocking:
		for i, v := range block {
			if v == id {
				continue
			}
			l := &o.locks[i]
			if !l.TryLock() {
				o.waitLock(l)
			}
			o.shared[i] = o.op.Apply(o.shared[i], v)
			l.Unlock()
		}
	case OptimizedFullLocking:
		for i, v := range block {
			if v == id {
				continue
			}
			c := &o.padded[i]
			if !c.mu.TryLock() {
				o.waitLock(&c.mu)
			}
			c.val = o.op.Apply(c.val, v)
			c.mu.Unlock()
		}
	case FixedLocking:
		// One acquisition per pool lock per flush: lock l guards every cell
		// i with i mod pool == l, so sweep that stride while holding it.
		pool := len(o.locks)
		for start := 0; start < pool && start < cells; start++ {
			l := &o.locks[start]
			if !l.TryLock() {
				o.waitLock(l)
			}
			for i := start; i < cells; i += pool {
				if v := block[i]; v != id {
					o.shared[i] = o.op.Apply(o.shared[i], v)
				}
			}
			l.Unlock()
		}
	case AtomicCAS:
		for i, v := range block {
			if v == id {
				continue
			}
			b := &o.bits[i]
			for {
				old := b.Load()
				next := math.Float64bits(o.op.Apply(math.Float64frombits(old), v))
				if b.CompareAndSwap(old, next) {
					break
				}
				mCASRetry.Inc()
			}
		}
	}
	// Count cells folded, so per-strategy update totals stay comparable
	// between the per-element and fused paths.
	o.updates[w].n += int64(cells)
}

// AccumulateScattered folds a sparse set of touched cells — flat cell
// indices with their accumulated values — into the object on behalf of
// worker w. It is the scattered counterpart of AccumulateBlock: where the
// block path sweeps all groups×elems cells to find the touched ones, the
// scattered path visits exactly len(cells) non-contiguous cells. No engine
// path calls it — the sparse executors accumulate each row piece straight
// into the object — and it stays because the benchmark's layer suite
// measures it (robj.scatter_flush_ns_per_cell). Cell indices are not
// re-checked here, so callers pass in-bounds cells; duplicate indices are
// legal and fold associatively. Safe for concurrent use by distinct workers.
func (o *Object) AccumulateScattered(w int, cells []int32, vals []float64) {
	if len(cells) != len(vals) {
		panic(fmt.Sprintf("robj: AccumulateScattered got %d cells, %d values", len(cells), len(vals)))
	}
	switch o.strategy {
	case FullReplication:
		r := o.replicas[w]
		for k, i := range cells {
			r[i] = o.op.Apply(r[i], vals[k])
		}
	case FullLocking:
		for k, i := range cells {
			l := &o.locks[i]
			if !l.TryLock() {
				o.waitLock(l)
			}
			o.shared[i] = o.op.Apply(o.shared[i], vals[k])
			l.Unlock()
		}
	case OptimizedFullLocking:
		for k, i := range cells {
			c := &o.padded[i]
			if !c.mu.TryLock() {
				o.waitLock(&c.mu)
			}
			c.val = o.op.Apply(c.val, vals[k])
			c.mu.Unlock()
		}
	case FixedLocking:
		for k, i := range cells {
			l := &o.locks[int(i)%len(o.locks)]
			if !l.TryLock() {
				o.waitLock(l)
			}
			o.shared[i] = o.op.Apply(o.shared[i], vals[k])
			l.Unlock()
		}
	case AtomicCAS:
		for k, i := range cells {
			b := &o.bits[i]
			for {
				old := b.Load()
				next := math.Float64bits(o.op.Apply(math.Float64frombits(old), vals[k]))
				if b.CompareAndSwap(old, next) {
					break
				}
				mCASRetry.Inc()
			}
		}
	}
	o.updates[w].n += int64(len(cells))
}

// parallelMergeThreshold is the cell count above which Merge combines
// replicas with parallel range-partitioned workers, mirroring the paper's
// "if the size of the reduction object is large, both local and global
// combination phases perform a parallel merge".
const parallelMergeThreshold = 1 << 14

// Merge performs the local combination phase: for FullReplication it merges
// the per-thread copies (in worker order, so floating-point results are
// deterministic for a fixed worker count); for shared strategies it simply
// publishes the shared copy. Merge must be called exactly once, after all
// Accumulate calls have completed.
func (o *Object) Merge() {
	if o.done {
		panic("robj: Merge called twice")
	}
	o.done = true
	mMerges.Inc()
	mergeStart := time.Now()
	defer func() { hMerge.ObserveDuration(time.Since(mergeStart)) }()
	// Flush the per-worker update counts gathered since Alloc or Reset into
	// the global per-strategy counter.
	var updated int64
	for w := range o.updates {
		updated += o.updates[w].n
		o.updates[w].n = 0
	}
	o.updatesC.Add(updated)
	cells := o.groups * o.elems
	// Reuse the buffer retired by the last Reset when present; every branch
	// below overwrites all cells, so no clearing is needed.
	out := o.spare
	o.spare = nil
	if cap(out) < cells {
		out = make([]float64, cells)
	}
	out = out[:cells]
	switch o.strategy {
	case FullReplication:
		copy(out, o.replicas[0])
		mergeRange := func(lo, hi int) {
			for w := 1; w < len(o.replicas); w++ {
				r := o.replicas[w]
				for i := lo; i < hi; i++ {
					out[i] = o.op.Apply(out[i], r[i])
				}
			}
		}
		if cells >= parallelMergeThreshold && o.workers > 1 {
			var wg sync.WaitGroup
			per := (cells + o.workers - 1) / o.workers
			for lo := 0; lo < cells; lo += per {
				hi := lo + per
				if hi > cells {
					hi = cells
				}
				wg.Add(1)
				go func(lo, hi int) {
					defer wg.Done()
					mergeRange(lo, hi)
				}(lo, hi)
			}
			wg.Wait()
		} else {
			mergeRange(0, cells)
		}
	case OptimizedFullLocking:
		for i := range o.padded {
			out[i] = o.padded[i].val
		}
	case AtomicCAS:
		for i := range o.bits {
			out[i] = math.Float64frombits(o.bits[i].Load())
		}
	default: // FullLocking, FixedLocking
		copy(out, o.shared)
	}
	o.merged = out
}

// Merged reports whether Merge has run.
func (o *Object) Merged() bool { return o.done }

// Get returns the final value of cell (group, elem). It mirrors FREERIDE's
// get_intermediate_result. Get panics if Merge has not been called.
func (o *Object) Get(group, elem int) float64 {
	if !o.done {
		panic("robj: Get before Merge")
	}
	return o.merged[o.cell(group, elem)]
}

// Snapshot returns the merged object as a flat slice laid out group-major.
// The slice is owned by the object; callers must not modify it.
func (o *Object) Snapshot() []float64 {
	if !o.done {
		panic("robj: Snapshot before Merge")
	}
	return o.merged
}

// Reset returns a merged object to its pre-Merge state with every cell at
// the operator's identity, so iterative algorithms (k-means' outer loop,
// EM rounds) can reuse the allocation instead of allocating a fresh object
// per pass. Reset panics if Merge has not run (resetting an un-merged
// object mid-flight would race with accumulators).
//
// Reset retires the merged buffer for reuse by the next Merge, so slices
// previously returned by Snapshot are invalidated: copy out any values that
// must survive the reset.
func (o *Object) Reset() {
	if !o.done {
		panic("robj: Reset before Merge")
	}
	o.done = false
	o.spare = o.merged
	o.merged = nil
	id := o.op.Identity()
	switch o.strategy {
	case FullReplication:
		for _, r := range o.replicas {
			for i := range r {
				r[i] = id
			}
		}
	case OptimizedFullLocking:
		for i := range o.padded {
			o.padded[i].val = id
		}
	case AtomicCAS:
		b := math.Float64bits(id)
		for i := range o.bits {
			o.bits[i].Store(b)
		}
	default: // FullLocking, FixedLocking
		for i := range o.shared {
			o.shared[i] = id
		}
	}
}

// CombineCells folds a flat cell array (group-major, same shape as
// Snapshot) into the merged object under its operator — the receive side
// of a serialized global combination across nodes. CombineCells panics if
// Merge has not run.
func (o *Object) CombineCells(cells []float64) error {
	if !o.done {
		panic("robj: CombineCells before Merge")
	}
	if len(cells) != len(o.merged) {
		return fmt.Errorf("robj: CombineCells got %d cells, object has %d", len(cells), len(o.merged))
	}
	for i := range o.merged {
		o.merged[i] = o.op.Apply(o.merged[i], cells[i])
	}
	return nil
}

// CombineFrom merges another object's final values into this one's, cell by
// cell under the operator. Both objects must be merged and have identical
// shapes. This is the all-to-one global combination used when several nodes
// (or engine passes) each hold a reduction object.
func (o *Object) CombineFrom(other *Object) error {
	if !o.done || !other.done {
		panic("robj: CombineFrom before Merge")
	}
	if o.groups != other.groups || o.elems != other.elems {
		return fmt.Errorf("robj: shape mismatch %dx%d vs %dx%d", o.groups, o.elems, other.groups, other.elems)
	}
	if o.op != other.op {
		return fmt.Errorf("robj: operator mismatch %v vs %v", o.op, other.op)
	}
	for i := range o.merged {
		o.merged[i] = o.op.Apply(o.merged[i], other.merged[i])
	}
	return nil
}
