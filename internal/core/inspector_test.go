package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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
// on (row, col) over the entries.
func csrReference(coo *SparseCOO) []int {
	perm := make([]int, len(coo.V))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ra, rb := coo.R[perm[a]], coo.R[perm[b]]
		if ra != rb {
			return ra < rb
		}
		return coo.C[perm[a]] < coo.C[perm[b]]
	})
	return perm
}

// entryRows expands a plan's row pointers into each entry's row: the
// per-entry scatter table the row pointers compress.
func entryRows(plan *InspectorPlan) []int32 {
	rows := make([]int32, 0, plan.nnz)
	for r := 0; r < plan.rows; r++ {
		for e := plan.rowPtr[r]; e < plan.rowPtr[r+1]; e++ {
			rows = append(rows, int32(r))
		}
	}
	return rows
}

// checkCSROrder builds the plan for coo and fails unless its row pointers
// are well formed and its tables hold coo's entries in the reference order.
func checkCSROrder(t *testing.T, name string, coo *SparseCOO) {
	t.Helper()
	plan, err := NewInspectorPlan(coo)
	if err != nil {
		t.Fatalf("%s: NewInspectorPlan: %v", name, err)
	}
	if len(plan.rowPtr) != coo.Rows+1 || plan.rowPtr[0] != 0 || int(plan.rowPtr[coo.Rows]) != len(coo.V) {
		t.Fatalf("%s: %d row pointers from %d to %d, want %d from 0 to %d",
			name, len(plan.rowPtr), plan.rowPtr[0], plan.rowPtr[len(plan.rowPtr)-1], coo.Rows+1, len(coo.V))
	}
	rows := entryRows(plan)
	for e, src := range csrReference(coo) {
		if rows[e] != coo.R[src] || plan.in[e] != coo.C[src] || plan.vals[e] != coo.V[src] {
			t.Fatalf("%s: entry %d = (%d,%d,%v), want input entry %d = (%d,%d,%v)",
				name, e, rows[e], plan.in[e], plan.vals[e], src, coo.R[src], coo.C[src], coo.V[src])
		}
	}
}

// TestInspectorPlanMatchesStableSort: the inspector's CSR order equals a
// stable sort on (row, col) — duplicates keep their input order — over
// small and large shapes with many empty rows, empty sources, and sources
// whose entries share one row (long enough for the radix column pass) or a
// few.
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

// TestInspectorPlanOutOfRangeRowsLast: an entry whose row is −1, Rows or
// MaxInt32 has no place in the row pointers, so the inspector refuses the
// source with FRV013, naming the first such entry, and TranslateSparse
// passes the refusal through.
func TestInspectorPlanOutOfRangeRowsLast(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	for _, rows := range []int{1, 5, 1024, 2500} {
		coo := randomCOO(rng, rows, 8, 600, rows, 8, 0.2)
		first := -1
		for e, r := range coo.R {
			if r < 0 || int(r) >= rows {
				first = e
				break
			}
		}
		if first < 0 {
			t.Fatalf("rows=%d: no out-of-range entry drawn", rows)
		}
		plan, err := NewInspectorPlan(coo)
		if plan != nil {
			t.Fatalf("rows=%d: inspector built a plan over out-of-range rows", rows)
		}
		want := fmt.Sprintf("entry %d has row %d", first, coo.R[first])
		if !hasDiag(err, verify.CodeTableOOB, want) {
			t.Fatalf("rows=%d: want %s naming %q, got %v", rows, verify.CodeTableOOB, want, err)
		}
		_, err = TranslateSparse(spmvTestClass(rows, nil), coo, Opt1)
		if !hasDiag(err, verify.CodeTableOOB, want) {
			t.Fatalf("rows=%d: TranslateSparse: want %s naming %q, got %v", rows, verify.CodeTableOOB, want, err)
		}
	}
}

// hasDiag reports whether err is a *verify.Error with a code diagnostic
// whose message contains msg.
func hasDiag(err error, code verify.Code, msg string) bool {
	var verr *verify.Error
	if !errors.As(err, &verr) {
		return false
	}
	for _, d := range verr.Diags {
		if d.Code == code && strings.Contains(d.Msg, msg) {
			return true
		}
	}
	return false
}

// TestCheckSparseShapeNNZ: row pointers are int32, so rowPtr[rows] = nnz
// must fit one. More than MaxInt32 nonzeros is refused with FRV007 from the
// count alone, before any table is sized.
func TestCheckSparseShapeNNZ(t *testing.T) {
	for _, tc := range []struct {
		nnz int
		ok  bool
	}{{0, true}, {math.MaxInt32, true}, {math.MaxInt32 + 1, false}, {-1, false}} {
		err := CheckSparseShape(4, 4, tc.nnz)
		if tc.ok != (err == nil) {
			t.Fatalf("nnz %d: error %v, want ok=%v", tc.nnz, err, tc.ok)
		}
		if !tc.ok && !hasDiag(err, verify.CodeBadObjectShape, "nonzeros") {
			t.Fatalf("nnz %d: want %s, got %v", tc.nnz, verify.CodeBadObjectShape, err)
		}
	}
}

// TestInspectorPlanAllocs is the inspector's memory guard. Building a plan
// allocates its tables — 12 B an entry (value, column) and 4 B a row (row
// pointers) — and, only when a row is longer than insertionRowMax, a
// scratch the size of the longest row: no permutation and no other
// full-size temporary. A tall matrix with three entries pays for its row
// pointers only. Above the grain the inspector runs on W workers, and each
// worker past the first adds one row histogram, 4 B a row.
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
	// Large allocations round up to whole pages; the plan itself is small.
	const slack = 32 << 10

	const nnz, rows = 200000, 200000
	coo := randomCOO(rand.New(rand.NewSource(1)), rows, rows, nnz, rows, rows, 0)
	tables := 12*nnz + 4*(rows+1)
	got := allocated(coo)
	t.Logf("a %d-entry plan of %d rows allocated %d B (tables %d B)", nnz, rows, got, tables)
	if got > uint64(tables+slack) {
		t.Fatalf("a %d-entry plan allocated %d B, budget %d B (tables %d B + %d B slack)",
			nnz, got, tables+slack, tables, slack)
	}

	const tall = 1 << 22
	wide := &SparseCOO{
		Rows: tall, Cols: 4,
		R: []int32{5, 0, tall - 1}, C: []int32{1, 2, 3}, V: []float64{1, 2, 3},
	}
	if got, budget := allocated(wide), uint64(4*(tall+1)+slack); got > budget {
		t.Fatalf("a 3-entry plan with %d rows allocated %d B, budget %d B (row pointers %d B + %d B slack)",
			tall, got, budget, 4*(tall+1), slack)
	}

	const bigNNZ, bigRows = 4 * grain, grain
	big := randomCOO(rand.New(rand.NewSource(2)), bigRows, bigRows, bigNNZ, bigRows, bigRows, 0)
	w := inspectorWorkers(bigNNZ, bigRows)
	tables = 12*bigNNZ + 4*(bigRows+1)
	hists := 4 * bigRows * (w - 1)
	got = allocated(big)
	t.Logf("a %d-entry plan of %d rows on %d workers allocated %d B (tables %d B, histograms %d B)",
		bigNNZ, bigRows, w, got, tables, hists)
	if got > uint64(tables+hists+slack) {
		t.Fatalf("a %d-entry plan on %d workers allocated %d B, budget %d B (tables %d B + histograms %d B + %d B slack)",
			bigNNZ, w, got, tables+hists+slack, tables, hists, slack)
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
