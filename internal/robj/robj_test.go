package robj

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestOpIdentityAndApply(t *testing.T) {
	if OpAdd.Identity() != 0 {
		t.Fatal("add identity")
	}
	if !math.IsInf(OpMin.Identity(), 1) {
		t.Fatal("min identity")
	}
	if !math.IsInf(OpMax.Identity(), -1) {
		t.Fatal("max identity")
	}
	if OpAdd.Apply(2, 3) != 5 {
		t.Fatal("add apply")
	}
	if OpMin.Apply(2, 3) != 2 || OpMin.Apply(3, 2) != 2 {
		t.Fatal("min apply")
	}
	if OpMax.Apply(2, 3) != 3 || OpMax.Apply(3, 2) != 3 {
		t.Fatal("max apply")
	}
}

func TestOpAndStrategyStrings(t *testing.T) {
	for o, s := range map[Op]string{OpAdd: "add", OpMin: "min", OpMax: "max"} {
		if o.String() != s {
			t.Errorf("op %d string %q want %q", int(o), o.String(), s)
		}
	}
	if Op(9).String() != "op(9)" {
		t.Error("unknown op string")
	}
	for st, s := range map[Strategy]string{
		FullReplication: "replication", FullLocking: "full-locking",
		OptimizedFullLocking: "opt-locking", FixedLocking: "fixed-locking", AtomicCAS: "atomic",
	} {
		if st.String() != s {
			t.Errorf("strategy %d string %q want %q", int(st), st.String(), s)
		}
	}
	if Strategy(9).String() != "strategy(9)" {
		t.Error("unknown strategy string")
	}
}

func TestAllocRejectsBadShape(t *testing.T) {
	if _, err := Alloc(FullReplication, OpAdd, 0, 4, 1); err == nil {
		t.Fatal("want error for zero groups")
	}
	if _, err := Alloc(FullReplication, OpAdd, 4, -1, 1); err == nil {
		t.Fatal("want error for negative elems")
	}
	if _, err := Alloc(Strategy(99), OpAdd, 1, 1, 1); err == nil {
		t.Fatal("want error for unknown strategy")
	}
}

func TestAllocDefaultsWorkers(t *testing.T) {
	o, err := Alloc(FullReplication, OpAdd, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Workers() != 1 {
		t.Fatalf("workers = %d, want 1", o.Workers())
	}
}

func TestAccessors(t *testing.T) {
	o, err := Alloc(FullLocking, OpMin, 3, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if o.Groups() != 3 || o.ElemsPerGroup() != 5 || o.Op() != OpMin || o.Strategy() != FullLocking {
		t.Fatal("accessor mismatch")
	}
	if o.Merged() {
		t.Fatal("fresh object should not be merged")
	}
}

// sequentialExpected computes the expected merged cells for a batch of
// updates applied under op, starting from the identity.
func sequentialExpected(op Op, groups, elems int, updates [][3]float64) []float64 {
	out := make([]float64, groups*elems)
	for i := range out {
		out[i] = op.Identity()
	}
	for _, u := range updates {
		g, e, v := int(u[0]), int(u[1]), u[2]
		out[g*elems+e] = op.Apply(out[g*elems+e], v)
	}
	return out
}

func TestConcurrentAccumulateAllStrategiesAllOps(t *testing.T) {
	const groups, elems, workers = 7, 11, 4
	rng := rand.New(rand.NewSource(42))
	var updates [][3]float64
	for i := 0; i < 20000; i++ {
		updates = append(updates, [3]float64{
			float64(rng.Intn(groups)), float64(rng.Intn(elems)), rng.NormFloat64(),
		})
	}
	for _, op := range []Op{OpAdd, OpMin, OpMax} {
		want := sequentialExpected(op, groups, elems, updates)
		for _, st := range Strategies() {
			o, err := Alloc(st, op, groups, elems, workers)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			per := len(updates) / workers
			for w := 0; w < workers; w++ {
				lo, hi := w*per, (w+1)*per
				if w == workers-1 {
					hi = len(updates)
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					for _, u := range updates[lo:hi] {
						o.Accumulate(w, int(u[0]), int(u[1]), u[2])
					}
				}(w, lo, hi)
			}
			wg.Wait()
			o.Merge()
			got := o.Snapshot()
			tol := 0.0
			if op == OpAdd {
				tol = 1e-9 * float64(len(updates)) // summation order varies
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("%v/%v cell %d: got %v want %v", st, op, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGetAndSnapshotAfterMerge(t *testing.T) {
	o, _ := Alloc(FullReplication, OpAdd, 2, 3, 2)
	o.Accumulate(0, 1, 2, 5)
	o.Accumulate(1, 1, 2, 7)
	o.Accumulate(0, 0, 0, 1)
	o.Merge()
	if got := o.Get(1, 2); got != 12 {
		t.Fatalf("Get(1,2) = %v, want 12", got)
	}
	if got := o.Get(0, 0); got != 1 {
		t.Fatalf("Get(0,0) = %v, want 1", got)
	}
	snap := o.Snapshot()
	if len(snap) != 6 || snap[1*3+2] != 12 {
		t.Fatalf("Snapshot = %v", snap)
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	o, _ := Alloc(FullLocking, OpAdd, 2, 2, 1)
	mustPanic("get-before-merge", func() { o.Get(0, 0) })
	mustPanic("snapshot-before-merge", func() { o.Snapshot() })
	mustPanic("out-of-range-group", func() { o.Accumulate(0, 2, 0, 1) })
	mustPanic("out-of-range-elem", func() { o.Accumulate(0, 0, -1, 1) })
	o.Merge()
	mustPanic("double-merge", func() { o.Merge() })
}

// TestAccumulateOutOfRangeMessage pins, for every strategy, that an
// out-of-range Accumulate or AccumulateRange panics before touching the
// object and that the panic still reads as it did when cell formatted the
// message itself.
func TestAccumulateOutOfRangeMessage(t *testing.T) {
	for _, st := range Strategies() {
		o, _ := Alloc(st, OpAdd, 2, 3, 2)
		for _, c := range []struct {
			group, elem int
			want        string
		}{
			{2, 0, "robj: accumulate out of range: group=2 elem=0 shape=2x3"},
			{-1, 1, "robj: accumulate out of range: group=-1 elem=1 shape=2x3"},
			{1, 3, "robj: accumulate out of range: group=1 elem=3 shape=2x3"},
			{0, -4, "robj: accumulate out of range: group=0 elem=-4 shape=2x3"},
		} {
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%v: Accumulate(1, %d, %d) did not panic", st, c.group, c.elem)
					}
					if got := fmt.Sprint(r); got != c.want {
						t.Errorf("%v: panic %q, want %q", st, got, c.want)
					}
				}()
				o.Accumulate(1, c.group, c.elem, 1)
			}()
		}
		// A run is refused whole, before any of its cells is touched, and
		// the message names its first out-of-range element.
		for _, c := range []struct {
			group, elem0, n int
			want            string
		}{
			{2, 0, 2, "robj: accumulate out of range: group=2 elem=0 shape=2x3"},
			{-1, 1, 1, "robj: accumulate out of range: group=-1 elem=1 shape=2x3"},
			{0, -2, 3, "robj: accumulate out of range: group=0 elem=-2 shape=2x3"},
			{1, 1, 3, "robj: accumulate out of range: group=1 elem=3 shape=2x3"},
			{0, 0, 4, "robj: accumulate out of range: group=0 elem=3 shape=2x3"},
			{1, 4, 1, "robj: accumulate out of range: group=1 elem=4 shape=2x3"},
			{0, 4, 0, "robj: accumulate out of range: group=0 elem=4 shape=2x3"},
		} {
			vals := make([]float64, c.n)
			for k := range vals {
				vals[k] = 1
			}
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("%v: AccumulateRange(1, %d, %d, %d values) did not panic", st, c.group, c.elem0, c.n)
					}
					if got := fmt.Sprint(r); got != c.want {
						t.Errorf("%v: panic %q, want %q", st, got, c.want)
					}
				}()
				o.AccumulateRange(1, c.group, c.elem0, vals)
			}()
		}
		o.Merge()
		for i, v := range o.Snapshot() {
			if v != 0 {
				t.Errorf("%v: cell %d = %v after refused updates, want 0", st, i, v)
			}
		}
	}
}

func TestParallelMergeLargeObject(t *testing.T) {
	// Exceed the parallel-merge threshold and check correctness.
	groups, elems := 256, 128 // 32768 cells > 1<<14
	const workers = 4
	o, _ := Alloc(FullReplication, OpAdd, groups, elems, workers)
	for w := 0; w < workers; w++ {
		for g := 0; g < groups; g++ {
			o.Accumulate(w, g, g%elems, 1)
		}
	}
	o.Merge()
	for g := 0; g < groups; g++ {
		if got := o.Get(g, g%elems); got != workers {
			t.Fatalf("cell (%d,%d) = %v, want %d", g, g%elems, got, workers)
		}
	}
}

func TestCombineFrom(t *testing.T) {
	a, _ := Alloc(FullReplication, OpAdd, 2, 2, 1)
	b, _ := Alloc(FullLocking, OpAdd, 2, 2, 1)
	a.Accumulate(0, 0, 0, 3)
	b.Accumulate(0, 0, 0, 4)
	b.Accumulate(0, 1, 1, 9)
	a.Merge()
	b.Merge()
	if err := a.CombineFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Get(0, 0) != 7 || a.Get(1, 1) != 9 {
		t.Fatalf("combined = %v", a.Snapshot())
	}
}

func TestCombineFromShapeAndOpMismatch(t *testing.T) {
	a, _ := Alloc(FullReplication, OpAdd, 2, 2, 1)
	b, _ := Alloc(FullReplication, OpAdd, 2, 3, 1)
	c, _ := Alloc(FullReplication, OpMin, 2, 2, 1)
	a.Merge()
	b.Merge()
	c.Merge()
	if err := a.CombineFrom(b); err == nil {
		t.Fatal("want shape mismatch error")
	}
	if err := a.CombineFrom(c); err == nil {
		t.Fatal("want op mismatch error")
	}
}

// Property: for integer-valued adds, every strategy agrees exactly with the
// sequential result (integer sums are exact in float64 at this scale).
func TestPropertyStrategiesAgreeOnIntegerSums(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%1000) + 1
		const groups, elems, workers = 4, 4, 3
		var updates [][3]float64
		for i := 0; i < n; i++ {
			updates = append(updates, [3]float64{
				float64(rng.Intn(groups)), float64(rng.Intn(elems)), float64(rng.Intn(100)),
			})
		}
		want := sequentialExpected(OpAdd, groups, elems, updates)
		for _, st := range Strategies() {
			o, err := Alloc(st, OpAdd, groups, elems, workers)
			if err != nil {
				return false
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(updates); i += workers {
						u := updates[i]
						o.Accumulate(w, int(u[0]), int(u[1]), u[2])
					}
				}(w)
			}
			wg.Wait()
			o.Merge()
			got := o.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

func TestResetReuse(t *testing.T) {
	for _, st := range Strategies() {
		o, err := Alloc(st, OpAdd, 2, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		o.Accumulate(0, 0, 0, 5)
		o.Accumulate(2, 1, 1, 7)
		o.Merge()
		if o.Get(0, 0) != 5 || o.Get(1, 1) != 7 {
			t.Fatalf("%v: first pass wrong", st)
		}
		o.Reset()
		if o.Merged() {
			t.Fatalf("%v: Reset should clear merged state", st)
		}
		o.Accumulate(1, 0, 0, 2)
		o.Merge()
		if o.Get(0, 0) != 2 || o.Get(1, 1) != 0 {
			t.Fatalf("%v: reuse saw stale cells: %v", st, o.Snapshot())
		}
	}
	// Reset before Merge panics.
	o, _ := Alloc(FullReplication, OpMin, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Reset before Merge should panic")
		}
	}()
	o.Reset()
}

func TestResetRestoresIdentity(t *testing.T) {
	o, _ := Alloc(AtomicCAS, OpMin, 1, 1, 1)
	o.Accumulate(0, 0, 0, -3)
	o.Merge()
	o.Reset()
	o.Merge()
	if !math.IsInf(o.Get(0, 0), 1) {
		t.Fatalf("min identity not restored: %v", o.Get(0, 0))
	}
}
