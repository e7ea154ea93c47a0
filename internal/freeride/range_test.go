package freeride

import (
	"context"
	"math"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
)

// rangeSpecs returns three specs computing the same per-group sums of
// features 1..3 and counts, like k-means' sums: one Accumulate per cell, one
// AccumulateRange per row, and a fused kernel making the same range call on
// its BlockArgs.
func rangeSpecs(groups int) (cell, run, fused Spec) {
	object := ObjectSpec{Groups: groups, Elems: 4, Op: robj.OpAdd}
	group := func(v float64) int { return int(v) % groups }
	cell = Spec{Object: object, Reduction: func(a *ReductionArgs) error {
		for i := 0; i < a.NumRows; i++ {
			row := a.Row(i)
			g := group(row[0])
			for j, v := range row[1:] {
				a.Accumulate(g, j, v)
			}
			a.Accumulate(g, 3, 1)
		}
		return nil
	}}
	run = Spec{Object: object, Reduction: func(a *ReductionArgs) error {
		for i := 0; i < a.NumRows; i++ {
			row := a.Row(i)
			g := group(row[0])
			a.AccumulateRange(g, 0, row[1:])
			a.Accumulate(g, 3, 1)
		}
		return nil
	}}
	fused = Spec{Object: object, BlockReduction: func(a *BlockArgs) error {
		for i := 0; i < a.NumRows; i++ {
			row := a.Row(i)
			g := group(row[0])
			a.AccumulateRange(g, 0, row[1:])
			a.Accumulate(g, 3, 1)
		}
		return nil
	}}
	return cell, run, fused
}

// TestAccumulateRangeSpecMatchesAccumulate runs the split handle's
// AccumulateRange, per element and fused, against one Accumulate per cell
// under every strategy on 1–4 threads. Integer data keeps every summation
// order exact, so the objects compare bit for bit.
func TestAccumulateRangeSpecMatchesAccumulate(t *testing.T) {
	m := dataset.NewMatrix(257, 4)
	r := int64(5)
	for i := range m.Data {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64((uint64(r) >> 33) % 50)
	}
	cell, run, fused := rangeSpecs(5)
	for _, st := range robj.Strategies() {
		for threads := 1; threads <= 4; threads++ {
			snap := func(spec Spec) []float64 {
				eng := New(Config{Threads: threads, Strategy: st, SplitRows: 16})
				defer eng.Close()
				res, err := eng.RunContext(context.Background(), spec, dataset.NewMemorySource(m))
				if err != nil {
					t.Fatal(err)
				}
				return append([]float64(nil), res.Object.Snapshot()...)
			}
			want := snap(cell)
			for name, spec := range map[string]Spec{"per-element": run, "fused": fused} {
				got := snap(spec)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%v/%d threads/%s: cell %d = %v, want %v", st, threads, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestAccumulateRangeBlockArgsStaysLocal: a fused kernel's AccumulateRange
// folds into the worker-local buffer exactly as per-cell BlockArgs.Accumulate
// does and never writes through to the shared object; a run leaving the
// group panics before touching the buffer.
func TestAccumulateRangeBlockArgsStaysLocal(t *testing.T) {
	for _, op := range []robj.Op{robj.OpAdd, robj.OpMin, robj.OpMax} {
		obj, err := robj.Alloc(robj.FullLocking, op, 2, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		newArgs := func() *BlockArgs {
			a := &BlockArgs{ReductionArgs: ReductionArgs{worker: 1, object: obj}, op: op, groups: 2, elems: 3}
			a.acc = make([]float64, 6)
			fillIdentity(a.acc, op.Identity())
			return a
		}
		run, cell := newArgs(), newArgs()
		for _, c := range []struct {
			group, elem0 int
			vals         []float64
		}{
			{1, 0, []float64{1, -2, 3}},
			{1, 1, []float64{4, 5}},
			{0, 2, []float64{-6}},
			{0, 3, nil},
		} {
			run.AccumulateRange(c.group, c.elem0, c.vals)
			for k, v := range c.vals {
				cell.Accumulate(c.group, c.elem0+k, v)
			}
		}
		for i := range cell.acc {
			if math.Float64bits(run.acc[i]) != math.Float64bits(cell.acc[i]) {
				t.Fatalf("op %v: acc[%d] = %v, per-cell Accumulate gives %v", op, i, run.acc[i], cell.acc[i])
			}
		}
		before := append([]float64(nil), run.acc...)
		for _, c := range [][2]int{{2, 0}, {-1, 0}, {0, -1}, {1, 2}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("op %v: AccumulateRange(%d, %d, 2 values) did not panic", op, c[0], c[1])
					}
				}()
				run.AccumulateRange(c[0], c[1], []float64{7, 7})
			}()
		}
		for i := range before {
			if math.Float64bits(run.acc[i]) != math.Float64bits(before[i]) {
				t.Fatalf("op %v: refused run changed acc[%d] from %v to %v", op, i, before[i], run.acc[i])
			}
		}
		obj.Merge()
		for i, v := range obj.Snapshot() {
			if v != op.Identity() {
				t.Fatalf("op %v: shared cell %d = %v, want identity: the range wrote through", op, i, v)
			}
		}
	}
}
