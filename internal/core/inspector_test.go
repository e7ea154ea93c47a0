package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"chapelfreeride/internal/verify"
)

// randomCOO draws nnz entries of a rows×cols matrix with rows in
// [0, rowSpan) and columns in [0, colSpan); small spans force duplicate
// coordinates. A share oob of the entries gets an out-of-range row (−1,
// rows or MaxInt32). V[e] = e, so a value names the input position of its
// entry and order checks see the order of duplicates too.
func randomCOO(rng *rand.Rand, rows, cols, nnz, rowSpan, colSpan int, oob float64) *SparseCOO {
	coo := &SparseCOO{
		Rows: rows, Cols: cols,
		R: make([]int32, nnz), C: make([]int32, nnz), V: make([]float64, nnz),
	}
	bad := []int32{-1, int32(rows), math.MaxInt32}
	for e := range coo.V {
		coo.R[e] = int32(rng.Intn(rowSpan))
		if rng.Float64() < oob {
			coo.R[e] = bad[rng.Intn(len(bad))]
		}
		coo.C[e] = int32(rng.Intn(colSpan))
		coo.V[e] = float64(e)
	}
	return coo
}

// csrReference is the order the inspector must produce: sort.SliceStable
// on (row, col) over the entries whose row is in [0, Rows), then the
// out-of-range entries in input order.
func csrReference(coo *SparseCOO) []int {
	perm := make([]int, len(coo.V))
	for i := range perm {
		perm[i] = i
	}
	inRange := func(r int32) bool { return r >= 0 && int(r) < coo.Rows }
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := coo.R[perm[a]], coo.R[perm[b]]
		if !inRange(ra) || !inRange(rb) {
			return inRange(ra) && !inRange(rb)
		}
		if ra != rb {
			return ra < rb
		}
		return coo.C[perm[a]] < coo.C[perm[b]]
	})
	return perm
}

// checkCSROrder builds the plan for coo and fails unless its tables hold
// coo's entries in the reference order.
func checkCSROrder(t *testing.T, name string, coo *SparseCOO) {
	t.Helper()
	plan, err := NewInspectorPlan(coo)
	if err != nil {
		t.Fatalf("%s: NewInspectorPlan: %v", name, err)
	}
	for e, src := range csrReference(coo) {
		if plan.out[e] != coo.R[src] || plan.in[e] != coo.C[src] || plan.vals[e] != coo.V[src] {
			t.Fatalf("%s: entry %d = (%d,%d,%v), want input entry %d = (%d,%d,%v)",
				name, e, plan.out[e], plan.in[e], plan.vals[e], src, coo.R[src], coo.C[src], coo.V[src])
		}
	}
}

// TestInspectorPlanMatchesStableSort: the inspector's CSR order equals a
// stable sort on (row, col) — duplicates keep their input order — over
// shapes around the 1024-row bucket (below it, not a multiple of it, many
// empty rows), empty sources, and sources whose entries share one row
// (long enough for the radix column pass) or a few.
func TestInspectorPlanMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, rows := range []int{1, 7, 1000, 1024, 1025, 3000, 5000} {
		for _, nnz := range []int{0, 1, 50, 4000} {
			for _, rowSpan := range []int{1, 3, rows} {
				for _, colSpan := range []int{4, 1 << 20} {
					coo := randomCOO(rng, rows, 1<<20, nnz, min(rowSpan, rows), colSpan, 0)
					checkCSROrder(t, "random", coo)
				}
			}
		}
	}

	// One long row over the whole int32 column range, negatives included:
	// the radix column pass must order signed columns like the comparison
	// sort does and keep duplicates stable.
	coo := randomCOO(rng, 10, 10, 5000, 1, 1, 0)
	for e := range coo.C {
		if e%2 == 0 {
			coo.C[e] = int32(rng.Uint32())
		} else {
			coo.C[e] = int32(rng.Intn(5)) - 2
		}
	}
	coo.C[0], coo.C[1] = math.MinInt32, math.MaxInt32
	checkCSROrder(t, "one signed row", coo)
}

// TestInspectorPlanOutOfRangeRowsLast: entries whose row is −1, Rows or
// MaxInt32 sort after every in-range entry, in input order and with their
// values, and the verifier still rejects the plan with FRV013.
func TestInspectorPlanOutOfRangeRowsLast(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	for _, rows := range []int{1, 5, 1024, 2500} {
		coo := randomCOO(rng, rows, 8, 600, rows, 8, 0.2)
		checkCSROrder(t, "out-of-range rows", coo)

		_, err := TranslateSparse(spmvTestClass(rows, nil), coo, Opt1)
		verr := verify.AsError(err)
		if verr == nil {
			t.Fatalf("rows=%d: want *verify.Error, got %v", rows, err)
		}
		found := false
		for _, d := range verr.Diags {
			found = found || d.Code == verify.CodeTableOOB
		}
		if !found {
			t.Fatalf("rows=%d: want %s, got:\n%s", rows, verify.CodeTableOOB, verr.Diags.Render())
		}
	}
}

// TestInspectorPlanAllocs is the inspector's memory guard. Building a plan
// allocates its tables (16 B an entry: value, out, in), one count per
// 1024-row bucket and a scratch the size of the largest bucket — no
// permutation and no other full-size temporary. A matrix with MaxInt32
// rows and three entries pays for its bucket counts only.
func TestInspectorPlanAllocs(t *testing.T) {
	allocated := func(coo *SparseCOO) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := NewInspectorPlan(coo); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	const nnz, rows = 200000, 200000
	coo := randomCOO(rand.New(rand.NewSource(1)), rows, rows, nnz, rows, rows, 0)
	counts := 8 * ((rows+1023)/1024 + 2)
	budget := uint64(1.1*16*nnz) + uint64(counts)
	if got := allocated(coo); got > budget {
		t.Fatalf("a %d-entry plan allocated %d B, budget %d B (tables %d B + bucket counts %d B + 10 %%)",
			nnz, got, budget, 16*nnz, counts)
	}

	wide := &SparseCOO{
		Rows: math.MaxInt32, Cols: 4,
		R: []int32{5, 0, math.MaxInt32 - 1}, C: []int32{1, 2, 3}, V: []float64{1, 2, 3},
	}
	if got := allocated(wide); got > 32<<20 {
		t.Fatalf("a 3-entry plan with MaxInt32 rows allocated %d B, want < 32 MB", got)
	}
}

// BenchmarkInspectorPlan times the inspector at the spmv_power shape: 2 M
// uniformly placed entries of a 500 000 × 500 000 matrix.
//
//	go test -bench InspectorPlan -run '^$' ./internal/core
func BenchmarkInspectorPlan(b *testing.B) {
	const dim, nnz = 500000, 2000000
	coo := randomCOO(rand.New(rand.NewSource(1)), dim, dim, nnz, dim, dim, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewInspectorPlan(coo); err != nil {
			b.Fatal(err)
		}
	}
}
