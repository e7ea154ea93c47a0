package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/verify"
)

// boxCOO builds the boxed Chapel COO array: [1..nnz] record nz { r, c, v }
// with 1-based whole-number coordinates stored as reals.
func boxCOO(entries [][3]float64) *chapel.Array {
	nz := chapel.RecordType("nz",
		chapel.Field{Name: "r", Type: chapel.RealType()},
		chapel.Field{Name: "c", Type: chapel.RealType()},
		chapel.Field{Name: "v", Type: chapel.RealType()})
	arr := chapel.NewArray(chapel.ArrayType(nz, 1, len(entries)))
	for i, e := range entries {
		rec := arr.At(i + 1).(*chapel.Record)
		rec.Fields[0] = &chapel.Real{Val: e[0]}
		rec.Fields[1] = &chapel.Real{Val: e[1]}
		rec.Fields[2] = &chapel.Real{Val: e[2]}
	}
	return arr
}

// testCOO is a 3×4 matrix with 5 nonzeros, deliberately out of CSR order.
func testCOO(t *testing.T) *SparseCOO {
	t.Helper()
	boxed := boxCOO([][3]float64{
		{3, 1, 5}, {1, 2, 2}, {2, 4, 7}, {1, 1, 1}, {3, 3, 4},
	})
	coo, err := LinearizeCOO(boxed, 3, 4)
	if err != nil {
		t.Fatalf("LinearizeCOO: %v", err)
	}
	return coo
}

func spmvTestClass(rows int, x *chapel.Array) *SparseClass {
	return &SparseClass{
		Name:   "spmv",
		Object: freeride.ObjectSpec{Groups: rows, Elems: 1, Op: robj.OpAdd},
		Hot:    x,
		Kernel: func(v, g float64) float64 { return v * g },
	}
}

func TestLinearizeCOO(t *testing.T) {
	coo := testCOO(t)
	if coo.Rows != 3 || coo.Cols != 4 {
		t.Fatalf("shape %dx%d, want 3x4", coo.Rows, coo.Cols)
	}
	// Coordinates converted to 0-based in entry order.
	wantR := []int32{2, 0, 1, 0, 2}
	wantC := []int32{0, 1, 3, 0, 2}
	for i := range wantR {
		if coo.R[i] != wantR[i] || coo.C[i] != wantC[i] {
			t.Fatalf("entry %d = (%d,%d), want (%d,%d)", i, coo.R[i], coo.C[i], wantR[i], wantC[i])
		}
	}
}

func TestLinearizeCOORejections(t *testing.T) {
	frac := boxCOO([][3]float64{{1.5, 1, 2}})
	if _, err := LinearizeCOO(frac, 2, 2); err == nil || !strings.Contains(err.Error(), "whole-number") {
		t.Fatalf("fractional coordinate not rejected: %v", err)
	}
	// Whole coordinates whose 0-based form no int32 holds: too large, and
	// MinInt32, which would wrap to MaxInt32 on the 1-based → 0-based step.
	for _, e := range [][3]float64{{3e9, 1, 2}, {1, -3e9, 2}, {math.MinInt32, 1, 2}, {1, math.Inf(1), 2}} {
		if _, err := LinearizeCOO(boxCOO([][3]float64{e}), 2, 2); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("coordinate outside int32 %v not rejected as out of range: %v", e, err)
		}
	}
	notRec := chapel.RealArray(1, 2, 3)
	if _, err := LinearizeCOO(notRec, 2, 2); err == nil || !strings.Contains(err.Error(), "records") {
		t.Fatalf("non-record array not rejected: %v", err)
	}
	badField := chapel.NewArray(chapel.ArrayType(chapel.RecordType("bad",
		chapel.Field{Name: "x", Type: chapel.RealType()}), 1, 1))
	if _, err := LinearizeCOO(badField, 2, 2); err == nil || !strings.Contains(err.Error(), "fields r, c, v") {
		t.Fatalf("wrong record fields not rejected: %v", err)
	}
}

func TestInspectorPlanCSROrder(t *testing.T) {
	plan, err := NewInspectorPlan(testCOO(t))
	if err != nil {
		t.Fatalf("NewInspectorPlan: %v", err)
	}
	if plan.Kind() != "inspector" || plan.Domain() != 5 {
		t.Fatalf("kind=%s domain=%d", plan.Kind(), plan.Domain())
	}
	// CSR order: (0,0,1) (0,1,2) (1,3,7) (2,0,5) (2,2,4).
	wantOut := []int32{0, 0, 1, 2, 2}
	wantIn := []int32{0, 1, 3, 0, 2}
	wantVals := []float64{1, 2, 7, 5, 4}
	wantRowPtr := []int32{0, 2, 3, 5}
	for r, p := range wantRowPtr {
		if plan.rowPtr[r] != p {
			t.Fatalf("rowPtr = %v, want %v", plan.rowPtr, wantRowPtr)
		}
	}
	rows := entryRows(plan)
	for i := range wantOut {
		if rows[i] != wantOut[i] || plan.in[i] != wantIn[i] || plan.vals[i] != wantVals[i] {
			t.Fatalf("entry %d = (%d,%d,%v), want (%d,%d,%v)",
				i, rows[i], plan.in[i], plan.vals[i], wantOut[i], wantIn[i], wantVals[i])
		}
	}
	if plan.TableBytes() != 4*(5+3+1) {
		t.Fatalf("TableBytes = %d, want 36 (5 columns, 4 row pointers)", plan.TableBytes())
	}
}

// TestTranslateSparseRejections pins the sparse verifier's diagnostic codes:
// out-of-range table entries trip the new table proofs (FRV013), shape
// mismatches the structural checks.
func TestTranslateSparseRejections(t *testing.T) {
	x := chapel.RealArray(1, 2, 3, 4)
	tests := []struct {
		name  string
		class func() *SparseClass
		coo   func(t *testing.T) *SparseCOO
		code  verify.Code
	}{
		{
			name:  "no kernel",
			class: func() *SparseClass { c := spmvTestClass(3, x); c.Kernel = nil; return c },
			coo:   testCOO,
			code:  verify.CodeNoKernel,
		},
		{
			name:  "matrix-shaped object",
			class: func() *SparseClass { c := spmvTestClass(3, x); c.Object.Elems = 2; return c },
			coo:   testCOO,
			code:  verify.CodeBadObjectShape,
		},
		{
			name:  "object groups disagree with matrix rows",
			class: func() *SparseClass { return spmvTestClass(5, x) },
			coo:   testCOO,
			code:  verify.CodeBadObjectShape,
		},
		{
			name:  "gather vector shorter than matrix columns",
			class: func() *SparseClass { return spmvTestClass(3, chapel.RealArray(1, 2)) },
			coo:   testCOO,
			code:  verify.CodeHotShape,
		},
		{
			name:  "row entry past matrix rows",
			class: func() *SparseClass { return spmvTestClass(3, x) },
			coo: func(t *testing.T) *SparseCOO {
				coo := testCOO(t)
				coo.R[2] = 9
				return coo
			},
			code: verify.CodeTableOOB,
		},
		{
			name:  "negative column entry",
			class: func() *SparseClass { return spmvTestClass(3, x) },
			coo: func(t *testing.T) *SparseCOO {
				coo := testCOO(t)
				coo.C[0] = -1
				return coo
			},
			code: verify.CodeTableOOB,
		},
		{
			name:  "matrix rows past int32",
			class: func() *SparseClass { return spmvTestClass(3, x) },
			coo: func(t *testing.T) *SparseCOO {
				coo := testCOO(t)
				coo.Rows = math.MaxInt32 + 1
				return coo
			},
			code: verify.CodeBadObjectShape,
		},
		{
			name:  "negative matrix columns",
			class: func() *SparseClass { return spmvTestClass(3, x) },
			coo: func(t *testing.T) *SparseCOO {
				coo := testCOO(t)
				coo.Cols = -1
				return coo
			},
			code: verify.CodeBadObjectShape,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := TranslateSparse(tc.class(), tc.coo(t), Opt1)
			verr := verify.AsError(err)
			if verr == nil {
				t.Fatalf("want *verify.Error, got %v", err)
			}
			found := false
			for _, d := range verr.Diags {
				if d.Code == tc.code && d.Severity == verify.SeverityError {
					found = true
				}
			}
			if !found {
				t.Fatalf("want code %s, got:\n%s", tc.code, verr.Diags.Render())
			}
		})
	}
}

// TestSparseExecutorMatchesDense runs the SpMV executor at every opt level
// and checks it against the densified mat-vec reference — the core-level
// half of the sparse ≡ densified property (apps sweeps strategies and
// schedulers on top).
func TestSparseExecutorMatchesDense(t *testing.T) {
	coo := testCOO(t)
	xv := []float64{3, 1, 4, 2}
	x := chapel.RealArray(xv...)

	// Densified reference.
	want := make([]float64, coo.Rows)
	for e := range coo.V {
		want[coo.R[e]] += coo.V[e] * xv[coo.C[e]]
	}

	for _, opt := range OptLevels() {
		tr, err := TranslateSparse(spmvTestClass(coo.Rows, x), coo, opt)
		if err != nil {
			t.Fatalf("%s: TranslateSparse: %v", opt, err)
		}
		eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 2})
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			eng.Close()
			t.Fatalf("%s: run: %v", opt, err)
		}
		got := res.Object.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: y[%d] = %v, want %v", opt, i, got[i], want[i])
			}
		}
		eng.Close()
	}
}

// TestEmitSparseCGolden pins the rendered sparse executor for SpMV at the
// two levels the translation pipeline distinguishes most: the per-element
// table walk (opt-1) and the fused scattered-accumulator shape (opt-3).
// Regenerate with -update-golden and inspect the diff before committing.
func TestEmitSparseCGolden(t *testing.T) {
	x := chapel.RealArray(1, 2, 3, 4)
	class := spmvTestClass(3, x)
	for _, opt := range []OptLevel{Opt1, Opt3} {
		name := fmt.Sprintf("spmv_%s", map[OptLevel]string{Opt1: "opt1", Opt3: "opt3"}[opt])
		t.Run(name, func(t *testing.T) {
			got, err := EmitSparseC(class, opt)
			if err != nil {
				t.Fatalf("EmitSparseC(%s): %v", opt, err)
			}
			path := filepath.Join("testdata", "emitc", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("EmitSparseC output for %s drifted from %s.\ngot:\n%s\nwant:\n%s",
					name, path, got, want)
			}
		})
	}
}

// TestSparseFusedFoldOrder pins the order in which each executor folds a
// cell's values, with data that makes any reordering visible: random
// non-integer values and gather elements, duplicate (row, col) entries, and
// 7-entry splits so rows straddle split boundaries. On one thread under full
// replication both references are sequential left folds from the identity
// in the plan's CSR order:
//
//   - opt-2 folds each kernel value into its cell, entry by entry;
//   - opt-3 folds each split's row run from its first value, then folds the
//     run into its cell, split by split.
//
// Results are compared with ==. A row that no split boundary cuts has one
// run, so there opt-3 must also equal opt-2 bit for bit.
func TestSparseFusedFoldOrder(t *testing.T) {
	const rows, cols, nnz, splitRows = 23, 11, 160, 7
	rng := rand.New(rand.NewSource(2011))
	coo := &SparseCOO{Rows: rows, Cols: cols}
	for len(coo.V) < nnz {
		r, c := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		if n := len(coo.V); n > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(n) // duplicate an earlier entry's coordinates
			r, c = coo.R[k], coo.C[k]
		}
		coo.R, coo.C = append(coo.R, r), append(coo.C, c)
		coo.V = append(coo.V, rng.Float64()*20-10)
	}
	xv := make([]float64, cols)
	for j := range xv {
		xv[j] = rng.Float64()*4 - 2
	}
	x := chapel.RealArray(xv...)
	gather := func(v, g float64) float64 { return v * g }
	classes := []*SparseClass{
		{Name: "spmv", Object: freeride.ObjectSpec{Groups: rows, Elems: 1, Op: robj.OpAdd}, Hot: x, Kernel: gather},
		{Name: "rowsum", Object: freeride.ObjectSpec{Groups: rows, Elems: 1, Op: robj.OpAdd},
			Kernel: func(v, _ float64) float64 { return v / 3 }},
		{Name: "rowmin", Object: freeride.ObjectSpec{Groups: rows, Elems: 1, Op: robj.OpMin}, Hot: x, Kernel: gather},
	}
	for _, class := range classes {
		name := class.Name
		cfg := freeride.Config{Threads: 1, Strategy: robj.FullReplication, SplitRows: splitRows}
		op := class.Object.Op
		got := map[OptLevel][]float64{}
		var straddles []bool
		for _, opt := range []OptLevel{Opt2, Opt3} {
			tr, err := TranslateSparse(class, coo, opt)
			if err != nil {
				t.Fatalf("%s %s: TranslateSparse: %v", name, opt, err)
			}
			out, in, vals := entryRows(tr.plan), tr.plan.in, tr.plan.vals
			value := func(e int) float64 {
				if class.Hot == nil {
					return class.Kernel(vals[e], 0)
				}
				return class.Kernel(vals[e], xv[in[e]])
			}
			// Record the splits in the order the worker takes them.
			var splits [][2]int
			spec := tr.Spec()
			red := spec.Reduction
			spec.Reduction = func(a *freeride.ReductionArgs) error {
				splits = append(splits, [2]int{a.Begin, a.NumRows})
				return red(a)
			}
			eng := freeride.New(cfg)
			res, err := eng.RunContext(context.Background(), spec, tr.Source())
			if err != nil {
				eng.Close()
				t.Fatalf("%s %s: run: %v", name, opt, err)
			}
			got[opt] = append([]float64(nil), res.Object.Snapshot()...)
			eng.Close()

			want := make([]float64, rows)
			for i := range want {
				want[i] = op.Identity()
			}
			straddles = make([]bool, rows)
			next := 0
			for _, s := range splits {
				if s[0] != next {
					t.Fatalf("%s %s: split at %d, want %d (one thread takes the splits in order)", name, opt, s[0], next)
				}
				next = s[0] + s[1]
				if s[0] > 0 && out[s[0]] == out[s[0]-1] {
					straddles[out[s[0]]] = true
				}
				for e := s[0]; e < next; e++ {
					if opt < Opt3 {
						want[out[e]] = op.Apply(want[out[e]], value(e))
						continue
					}
					run := value(e)
					for e+1 < next && out[e+1] == out[e] {
						e++
						run = op.Apply(run, value(e))
					}
					want[out[e]] = op.Apply(want[out[e]], run)
				}
			}
			if next != nnz {
				t.Fatalf("%s %s: splits cover %d entries, want %d", name, opt, next, nnz)
			}
			for i := range want {
				if got[opt][i] != want[i] {
					t.Errorf("%s %s: y[%d] = %v, want %v", name, opt, i, got[opt][i], want[i])
				}
			}
		}
		cut := 0
		for i, s := range straddles {
			if s {
				cut++
				continue
			}
			if got[Opt3][i] != got[Opt2][i] {
				t.Errorf("%s: y[%d] opt-3 %v, opt-2 %v on a row no split cuts", name, i, got[Opt3][i], got[Opt2][i])
			}
		}
		if cut == 0 {
			t.Fatalf("%s: no row straddles a split boundary", name)
		}
	}
}

// TestSparseOpt3WritesThrough: for every sharing strategy, the opt-3
// executor accumulates each row piece straight into the shared object. Its
// y is bit-identical to opt-2's (integer values make float addition exact),
// on a matrix with duplicate (row, col) entries whose rows are cut by split
// boundaries, and the pass runs no fused block: no block buffer is flushed
// and no row goes through a BlockReduction kernel.
func TestSparseOpt3WritesThrough(t *testing.T) {
	const rows, cols, nnz, splitRows = 40, 30, 280, 7 // 40 splits of 7 entries
	rng := rand.New(rand.NewSource(32))
	coo := &SparseCOO{Rows: rows, Cols: cols}
	for len(coo.V) < nnz {
		r, c := int32(rng.Intn(rows)), int32(rng.Intn(cols))
		if n := len(coo.V); n > 0 && rng.Intn(4) == 0 {
			k := rng.Intn(n) // duplicate an earlier entry's coordinates
			r, c = coo.R[k], coo.C[k]
		}
		coo.R, coo.C = append(coo.R, r), append(coo.C, c)
		coo.V = append(coo.V, float64(rng.Intn(19)-9))
	}
	xv := make([]float64, cols)
	for j := range xv {
		xv[j] = float64(rng.Intn(7) - 3)
	}
	class := spmvTestClass(rows, chapel.RealArray(xv...))
	tr3, err := TranslateSparse(class, coo, Opt3)
	if err != nil {
		t.Fatal(err)
	}
	cut := 0
	for r := 0; r < rows; r++ {
		lo, hi := int(tr3.plan.rowPtr[r]), int(tr3.plan.rowPtr[r+1])
		if hi-lo > 1 && (hi-1)/splitRows != lo/splitRows {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("no row straddles a split boundary")
	}
	tr2, err := TranslateSparse(class, coo, Opt2)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range robj.Strategies() {
		cfg := freeride.Config{Threads: 4, SplitRows: splitRows, Strategy: strategy}
		run := func(tr *SparseTranslation) *freeride.Result {
			t.Helper()
			eng := freeride.New(cfg)
			defer eng.Close()
			res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
			if err != nil {
				t.Fatalf("%v %s: %v", strategy, tr.Opt(), err)
			}
			return res
		}
		want := run(tr2).Object.Snapshot()
		res := run(tr3)
		got := res.Object.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v: y[%d] opt-3 %v, opt-2 %v", strategy, i, got[i], want[i])
			}
		}
		deltas := map[string]int64{}
		for _, d := range res.Stats.JobDeltas {
			deltas[d.Name] += d.Value
		}
		if deltas["freeride_rows_total"] != nnz {
			t.Errorf("%v: freeride_rows_total = %d, want %d", strategy, deltas["freeride_rows_total"], nnz)
		}
		for _, name := range []string{"freeride_block_flushes_total", "freeride_rows_fused_total"} {
			if deltas[name] != 0 {
				t.Errorf("%v: %s = %d, want 0 (opt-3 writes through)", strategy, name, deltas[name])
			}
		}
	}
}

// BenchmarkSparseOpt3Pass times one warm opt-3 pass at the spmv_power
// shape: 2 M uniformly placed entries of a 500 000 × 500 000 matrix, an
// integer-valued x, two worker threads.
//
//	go test -bench SparseOpt3Pass -run '^$' ./internal/core
func BenchmarkSparseOpt3Pass(b *testing.B) {
	const dim, nnz = 500000, 2000000
	coo := randomCOO(rand.New(rand.NewSource(1)), dim, dim, nnz, dim, dim, 0)
	xv := make([]float64, dim)
	for j := range xv {
		xv[j] = float64(j%7 + 1)
	}
	tr, err := TranslateSparse(spmvTestClass(dim, chapel.RealArray(xv...)), coo, Opt3)
	if err != nil {
		b.Fatal(err)
	}
	eng := freeride.New(freeride.Config{Threads: 2})
	defer eng.Close()
	spec, src := tr.Spec(), tr.Source()
	pass := func() {
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			b.Fatal(err)
		}
	}
	pass() // warm the session pools and the worker scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
