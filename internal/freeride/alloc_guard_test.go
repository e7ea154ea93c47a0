//go:build !race

package freeride

import (
	"context"
	"path/filepath"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/sched"
)

// The allocation-regression guards for warm session passes (run explicitly
// in CI) share one body, checkPassAllocs, and differ only in kernel form and
// source. Once a session is warm, a RunContext+Release pass reuses the
// pooled reduction object, scheduler, split table and per-worker split
// handles, so its allocations are a small per-pass constant (observability
// spans, stats, the Result) — independent of the split count and nearly
// independent of the thread count. Every guard reduces 1000 splits
// (SplitRows 64), so a per-split allocation shows up as ≥1000 allocs per
// pass, and a per-slot one as a steep thread-count slope. The raceless build
// is required because -race instrumentation inflates allocation counts.

// TestSessionSteadyStateAllocs guards the per-element kernel form over a
// memory source.
func TestSessionSteadyStateAllocs(t *testing.T) {
	elem, _ := histSpecs(8)
	checkPassAllocs(t, elem, dataset.NewMemorySource(intMatrix(64_000, 2)))
}

// TestFusedPassAllocs guards the fused (BlockReduction) kernel form over a
// memory source: the block buffer lives in the pool worker's split handle,
// so a per-split make of it would blow the budget.
func TestFusedPassAllocs(t *testing.T) {
	_, fused := histSpecs(8)
	checkPassAllocs(t, fused, dataset.NewMemorySource(intMatrix(64_000, 2)))
}

// TestZeroCopyPassAllocs guards the fused form over a mapped file, whose
// reads are sub-slices of the mapping: a copy or per-split buffer sneaking
// back into the file path shows up here.
func TestZeroCopyPassAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "zc.frds")
	if err := dataset.WriteFile(path, intMatrix(64_000, 2)); err != nil {
		t.Fatal(err)
	}
	mapped, err := dataset.OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if !mapped.Mapped() {
		t.Skip("mmap unavailable on this platform/filesystem")
	}
	_, fused := histSpecs(8)
	checkPassAllocs(t, fused, mapped)
}

// checkPassAllocs holds a warm pass of spec over src to the 150-alloc budget
// at 4 threads, and to at most 22 more allocs at 16 threads than at 1.
func checkPassAllocs(t *testing.T, spec Spec, src dataset.Source) {
	t.Helper()
	passAllocs := func(threads int) float64 {
		eng := New(Config{Threads: threads, SplitRows: 64, Scheduler: sched.Dynamic})
		defer eng.Close()
		pass := func() {
			res, err := eng.RunContext(context.Background(), spec, src)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Release(res); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ { // warm the session pools and split handles
			pass()
		}
		return testing.AllocsPerRun(10, pass)
	}
	allocs := passAllocs(4)
	t.Logf("warm pass at 4 threads: %.1f allocs", allocs)
	// The fixed per-pass cost is ~30 allocs today; 150 leaves headroom
	// without letting O(splits) regressions in.
	if allocs > 150 {
		t.Fatalf("warm pass allocated %.0f times (budget 150) — a pooled resource "+
			"(object, scheduler, splits, split handle, block buffer) is being reallocated per split or per pass", allocs)
	}
	// Each extra worker slot costs its span and little else: 1.5 allocs per
	// slot over 15 extra slots.
	one, many := passAllocs(1), passAllocs(16)
	t.Logf("warm pass: %.1f allocs at 1 thread, %.1f at 16", one, many)
	if slope := many - one; slope > 22 {
		t.Fatalf("16 threads allocate %.0f more than 1 thread (budget 22) — "+
			"something is allocated per worker slot per pass", slope)
	}
}
