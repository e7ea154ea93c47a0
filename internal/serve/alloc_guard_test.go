//go:build !race

package serve

import (
	"runtime"
	"testing"

	"chapelfreeride/internal/freeride"
)

// TestServeSpMVAllocs is the allocation-regression guard for served spmv
// (run explicitly in CI): a warm request on a resident recipe reads the
// triples in place and builds the COO from them directly, so what it
// allocates per nonzero is the COO, the inspector's tables and the pass —
// not a copy of the triples and a boxed Chapel record per entry, which cost
// ≈ 170 B per nonzero more (≈ 232 B in all). The raceless build is required
// because -race instrumentation inflates allocations.
func TestServeSpMVAllocs(t *testing.T) {
	const nnz = 20000
	spec := DatasetSpec{Name: "sp", Kind: "sparse", Rows: nnz / 2, Dim: nnz / 2, NNZ: nnz, Seed: 3}
	s := New(Config{Engines: 1, Engine: freeride.Config{Threads: 2}, MaxConcurrency: 1})
	s.Start()
	defer s.Close()
	if _, err := s.RegisterDataset(spec); err != nil {
		t.Fatal(err)
	}
	p := Params{Rows: spec.Rows, Cols: spec.Dim}
	for i := 0; i < 3; i++ { // materialize the recipe, warm the session pools
		waitSpMV(t, submitSpMV(t, s, spec.Name, p))
	}
	const reps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		waitSpMV(t, submitSpMV(t, s, spec.Name, p))
	}
	runtime.ReadMemStats(&after)
	perNNZ := float64(after.TotalAlloc-before.TotalAlloc) / reps / nnz
	t.Logf("warm spmv request: %.1f B per nonzero", perNNZ)
	// ≈ 60 B today: COO 16, inspector tables 14 (values 8, columns 4, row
	// pointers 2 at two entries a row), the boxed gather vector
	// (apps.SpMVClass) 16, x and y 8, its linearized words 4, the pass's
	// object the rest.
	if budget := 80.0; perNNZ > budget {
		t.Fatalf("warm spmv request allocated %.1f B per nonzero, budget %.0f", perNNZ, budget)
	}
}
