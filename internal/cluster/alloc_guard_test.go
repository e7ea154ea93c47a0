//go:build !race

package cluster

import (
	"context"
	"runtime"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// TestClusterSteadyStateAllocs is the allocation-regression guard for a
// warm TCP cluster session (run explicitly in CI), at the cluster_iter
// shape: 2 nodes × 1 thread, a 20 × 11 object. Once the mesh is up, a pass
// reuses the connections' frame buffers and string tables, the mesh's
// per-exchange state and the node engines' pools, so what it allocates is
// the pass's own results — the Result and its Stats, the merged timeline,
// the node traces and job metrics — plus a few goroutine closures. The
// raceless build is required because -race instrumentation allocates.
func TestClusterSteadyStateAllocs(t *testing.T) {
	const groups, elems = 20, 11
	m := bucketData(4000, groups)
	src := dataset.NewMemorySource(m)
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: groups, Elems: elems, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				g := int(a.Row(i)[0])
				for e := 0; e < elems; e++ {
					a.Accumulate(g, e, 1)
				}
			}
			return nil
		},
	}
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}, Transport: TCP})
	defer c.Close()
	pass := func() {
		res, err := c.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // dial the mesh, fill the string tables and pools
		pass()
	}
	allocs := testing.AllocsPerRun(50, pass)

	const passes = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / passes
	t.Logf("steady-state TCP cluster pass: %.1f allocs, %.0f bytes", allocs, bytes)
	// Today: ~110 allocs and ~11 KB a pass. The budgets leave headroom
	// without letting a per-pass codec or bookkeeping regression in (the
	// gob mesh this replaced cost ~320 allocs and ~24 KB).
	if allocs > 140 {
		t.Errorf("steady-state cluster pass allocated %.0f times (budget 140)", allocs)
	}
	if bytes > 16<<10 {
		t.Errorf("steady-state cluster pass allocated %.0f bytes (budget %d)", bytes, 16<<10)
	}
}
