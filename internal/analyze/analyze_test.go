package analyze

import (
	"strings"
	"testing"

	"chapelfreeride/internal/verify"
)

// densePlan builds the canonical affine plan: rows×cols contiguous data
// reduced into a groups×elems object.
func densePlan(rows, cols, groups, elems int) *verify.Plan {
	return &verify.Plan{
		Class: "t", Opt: 2, OptName: "opt-2", HasKernel: true,
		Object: verify.Shape{Groups: groups, Elems: elems},
		Data: &verify.Access{
			Name: "data", Elems: rows, InnerLen: cols,
			U0: cols, U1: 1, WordLen: rows * cols, Levels: 2, AllReal: true,
		},
	}
}

// scatterPlan builds an inspector plan whose scatter targets are given per
// write, compressed into CSR row pointers as the inspector stores them.
func scatterPlan(out []int32, bound int) *verify.Plan {
	rowPtr := make([]int32, bound+1)
	for _, r := range out {
		rowPtr[r+1]++
	}
	for r := 1; r <= bound; r++ {
		rowPtr[r] += rowPtr[r-1]
	}
	return &verify.Plan{
		Class: "t", Opt: 3, OptName: "opt-3", HasKernel: true, HasBlockKernel: true,
		Object: verify.Shape{Groups: bound, Elems: 1},
		Tables: []verify.TableAccess{{Name: "rowPtr", Domain: len(out), Entries: rowPtr, Bound: bound}},
	}
}

func TestProfileAffine(t *testing.T) {
	pr := Profile(densePlan(1000, 4, 8, 5), Options{})
	if pr.Kind != "affine" || pr.Domain != 1000 {
		t.Fatalf("kind/domain = %s/%d", pr.Kind, pr.Domain)
	}
	if len(pr.Reads) != 1 || pr.Reads[0].Overlap != OverlapDisjoint {
		t.Fatalf("data read = %+v, want disjoint", pr.Reads)
	}
	if pr.Reads[0].FootprintBytes != 1000*4*8 {
		t.Fatalf("footprint = %d", pr.Reads[0].FootprintBytes)
	}
	w := pr.Writes
	if w.Overlap != OverlapWriteConflicting || w.Cells != 40 || w.Bytes != 320 {
		t.Fatalf("writes = %+v", w)
	}
	if w.MeanAliases != 25 { // 1000 rows / 40 cells
		t.Fatalf("mean aliases = %v", w.MeanAliases)
	}
	if len(pr.Diags) != 0 {
		t.Fatalf("unexpected diagnostics: %s", pr.Diags)
	}
}

func TestProfileOverlappingRowsReadShared(t *testing.T) {
	// U0 < InnerLen*U1: consecutive rows alias, so the read is not
	// split-disjoint (a sliding-window access shape).
	p := densePlan(100, 4, 2, 2)
	p.Data.U0 = 2
	p.Data.WordLen = 100 * 2
	pr := Profile(p, Options{})
	if pr.Reads[0].Overlap != OverlapReadShared {
		t.Fatalf("overlap = %s, want read-shared", pr.Reads[0].Overlap)
	}
}

func TestProfileInspectorHistogram(t *testing.T) {
	// 8 writes: cell 3 gets 4, cell 1 gets 2, cells 0 and 6 get 1 each.
	out := []int32{0, 1, 1, 3, 3, 3, 3, 6}
	pr := Profile(scatterPlan(out, 8), Options{})
	if pr.Kind != "inspector" || pr.Domain != 8 {
		t.Fatalf("kind/domain = %s/%d", pr.Kind, pr.Domain)
	}
	w := pr.Writes
	if w.TouchedCells != 4 || w.MaxAliases != 4 {
		t.Fatalf("touched/max = %d/%d", w.TouchedCells, w.MaxAliases)
	}
	if w.MeanAliases != 2 || w.HotCellShare != 0.5 || w.Skew != 2 {
		t.Fatalf("mean/hot/skew = %v/%v/%v", w.MeanAliases, w.HotCellShare, w.Skew)
	}
	if !w.Sorted {
		t.Fatal("row pointers not reported as row-sorted")
	}
	// Pointers the verifier rejects (FRV014) fold without panicking: a
	// short table leaves the profile empty, a decreasing pointer counts no
	// writes for its row.
	p := scatterPlan(out, 8)
	p.Tables[0].Entries = p.Tables[0].Entries[:5]
	if pr = Profile(p, Options{}); pr.Writes.TouchedCells != 8 || pr.Writes.Sorted {
		t.Fatalf("short row pointers folded to %+v", pr.Writes)
	}
	p = scatterPlan(out, 8)
	p.Tables[0].Entries[2] = 0
	if pr = Profile(p, Options{}); pr.Writes.TouchedCells != 4 || pr.Writes.MaxAliases != 4 {
		t.Fatalf("decreasing row pointer folded to %+v", pr.Writes)
	}
}

func TestDiagnosticsFire(t *testing.T) {
	// FRV050: one-cell object.
	pr := Profile(densePlan(100, 4, 1, 1), Options{})
	if !hasCode(pr.Diags, verify.CodeWriteHotspot) {
		t.Fatalf("FRV050 missing: %s", pr.Diags)
	}
	// FRV050: inspector hot-cell share >= 0.5.
	out := make([]int32, 100)
	for i := 60; i < 100; i++ {
		out[i] = int32(i)
	}
	pr = Profile(scatterPlan(out, 100), Options{})
	if !hasCode(pr.Diags, verify.CodeWriteHotspot) {
		t.Fatalf("FRV050 (skew form) missing: %s", pr.Diags)
	}
	// FRV051: object over the cache budget.
	pr = Profile(densePlan(100, 4, 1024, 1024), Options{CacheBudgetBytes: 1 << 20})
	if !hasCode(pr.Diags, verify.CodeFootprintBudget) {
		t.Fatalf("FRV051 missing: %s", pr.Diags)
	}
	// FRV052: degenerate skew over a large object.
	big := make([]int32, 10000)
	for i := range big {
		big[i] = int32(i % 100) // 100 touched of 8192 cells, uniform...
	}
	for i := 0; i < 3000; i++ {
		big[i] = 7 // ...plus a heavy alias pile-up on one cell
	}
	if small := Profile(scatterPlan(big, 4095), Options{}); hasCode(small.Diags, verify.CodeDegenerateSkew) {
		t.Fatalf("FRV052 on a %d-cell object, below its 4096-cell floor: %s", small.Writes.Cells, small.Diags)
	}
	pr = Profile(scatterPlan(big, 8192), Options{})
	if !hasCode(pr.Diags, verify.CodeDegenerateSkew) {
		t.Fatalf("FRV052 missing: %s", pr.Diags)
	}
	// None of the analysis diagnostics may reject a plan.
	if pr.Diags.HasErrors() {
		t.Fatalf("analysis produced error-severity diagnostics: %s", pr.Diags)
	}
}

func hasCode(ds verify.Diagnostics, code verify.Code) bool {
	for _, d := range ds {
		if d.Code == code {
			return true
		}
	}
	return false
}

func TestShapeProfiles(t *testing.T) {
	pr := DenseProfile("kmeans", 5000, 8, 32, 9, Options{})
	if pr.Kind != "affine" || pr.Domain != 5000 || pr.Writes.Cells != 288 {
		t.Fatalf("dense profile = %+v", pr)
	}
	sp := SparseShapeProfile("spmv", 100000, 8192, Options{})
	if sp.Kind != "inspector" || sp.Domain != 100000 || sp.Writes.Cells != 8192 {
		t.Fatalf("sparse profile = %+v", sp)
	}
	if sp.Writes.Skew != 1 {
		t.Fatalf("shape-only profile must assume uniform skew, got %v", sp.Writes.Skew)
	}
}

func TestReportRenders(t *testing.T) {
	pr := Profile(densePlan(1000, 4, 8, 5), Options{})
	adv := Advise(pr, 8)
	rep := pr.Report(adv, 8)
	for _, want := range []string{"plan analysis", "disjoint", "write-conflicting", "advice (threads=8)", "strategy=replication"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
}
