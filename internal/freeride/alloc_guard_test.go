//go:build !race

package freeride

import (
	"context"
	"path/filepath"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestSessionSteadyStateAllocs is the allocation-regression guard for the
// session architecture (run explicitly in CI): once a session is warm, a
// RunContext+Release pass reuses the pooled reduction object, scheduler, split
// table, and per-worker buffers, so steady-state allocations are a small
// per-pass constant (observability spans, the Result) — independent of the
// split count. The raceless build is required because -race instrumentation
// inflates allocation counts.
func TestSessionSteadyStateAllocs(t *testing.T) {
	m := dataset.UniformMatrix(64_000, 2, 5, 0, 1)
	src := dataset.NewMemorySource(m)
	spec := Spec{
		Object: ObjectSpec{Groups: 8, Elems: 2, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				a.Accumulate(int(row[0]*8)%8, 0, 1)
				a.Accumulate(int(row[0]*8)%8, 1, row[1])
			}
			return nil
		},
	}
	// SplitRows 64 ⇒ 1000 splits: a per-split allocation would show up as
	// ≥1000 allocs/pass, three orders of magnitude over the budget.
	eng := New(Config{Threads: 4, SplitRows: 64, Scheduler: sched.Dynamic})
	defer eng.Close()
	for i := 0; i < 3; i++ { // warm the session pools
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state session pass: %.1f allocs", allocs)
	// The fixed per-pass cost (trace spans, stats, Result) is ~30 allocs
	// today; 150 leaves headroom without letting O(splits) regressions in.
	if allocs > 150 {
		t.Fatalf("steady-state session pass allocated %.0f times (budget 150) — "+
			"a pooled resource (object, scheduler, splits, worker buffers) is being reallocated per pass", allocs)
	}
}

// TestFusedPassAllocs is the allocation-regression guard for the fused
// (BlockReduction) path: the worker-local dense accumulation buffer lives in
// the pool worker's persistent state, so a warm fused pass costs the same
// small per-pass constant as the per-element path — a per-split make of the
// block buffer (1000 splits here) would blow the budget three orders of
// magnitude.
func TestFusedPassAllocs(t *testing.T) {
	m := dataset.UniformMatrix(64_000, 2, 5, 0, 1)
	src := dataset.NewMemorySource(m)
	spec := Spec{
		Object: ObjectSpec{Groups: 8, Elems: 2, Op: robj.OpAdd},
		BlockReduction: func(a *BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				a.Accumulate(int(row[0]*8)%8, 0, 1)
				a.Accumulate(int(row[0]*8)%8, 1, row[1])
			}
			return nil
		},
	}
	eng := New(Config{Threads: 4, SplitRows: 64, Scheduler: sched.Dynamic})
	defer eng.Close()
	for i := 0; i < 3; i++ { // warm the session pools and worker block buffers
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state fused pass: %.1f allocs", allocs)
	if allocs > 150 {
		t.Fatalf("steady-state fused pass allocated %.0f times (budget 150) — "+
			"the block buffer (or another pooled resource) is being reallocated per split or per pass", allocs)
	}
}

// TestZeroCopyPassAllocs is the allocation-regression guard for mmap-backed
// zero-copy ingestion: with a mapped row-major file the engine's reads are
// sub-slices of the mapping (no split buffer fills at all), so a warm fused
// pass over the file costs the same small per-pass constant as a memory
// source — any copy or per-split buffer sneaking back into the file path
// shows up as O(splits) allocations.
func TestZeroCopyPassAllocs(t *testing.T) {
	m := dataset.UniformMatrix(64_000, 2, 5, 0, 1)
	path := filepath.Join(t.TempDir(), "zc.frds")
	if err := dataset.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if !src.Mapped() {
		t.Skip("mmap unavailable on this platform/filesystem")
	}
	spec := Spec{
		Object: ObjectSpec{Groups: 8, Elems: 2, Op: robj.OpAdd},
		BlockReduction: func(a *BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				a.Accumulate(int(row[0]*8)%8, 0, 1)
				a.Accumulate(int(row[0]*8)%8, 1, row[1])
			}
			return nil
		},
	}
	eng := New(Config{Threads: 4, SplitRows: 64, Scheduler: sched.Dynamic})
	defer eng.Close()
	for i := 0; i < 3; i++ { // warm the session pools
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state zero-copy mapped pass: %.1f allocs", allocs)
	if allocs > 150 {
		t.Fatalf("steady-state zero-copy pass allocated %.0f times (budget 150) — "+
			"the mapped fast path is copying or allocating per split", allocs)
	}
}
