package core

import (
	"context"
	"slices"
	"testing"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/verify"
)

// FuzzSparseExecutor drives whole sparse translations from raw bytes. Each
// 3-byte group of raw is one COO entry (row, column, value as int8s), so
// entries fall outside the shape in both coordinates, rows go empty and
// coordinates repeat; the values are small integers, so every fold order
// gives the same bits. A SpMV class and a gather-free row sum run at
// generated, opt-2 and opt-3 with SplitRows 1 + split%7 on 1 + threads%2
// threads. The oracle: the translation is refused with a *verify.Error
// carrying FRV007 (a shape no object or table can take) or FRV013 (an
// entry outside the shape), exactly when the source says so, or y equals
// the sequential triple loop under ==. The translate-time stages also run
// on 1 + workers%8 workers: the inspector's plan or refusal text and the
// refreshed gather words equal one worker's. Nothing panics.
func FuzzSparseExecutor(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, rows, cols int8, split, threads, workers uint8) {
		coo := &SparseCOO{Rows: int(rows), Cols: int(cols)}
		for i := 0; i+3 <= len(raw); i += 3 {
			coo.R = append(coo.R, int32(int8(raw[i])))
			coo.C = append(coo.C, int32(int8(raw[i+1])))
			coo.V = append(coo.V, float64(int8(raw[i+2])))
		}
		stageW := 1 + int(workers%8)
		plan1, err1 := newInspectorPlan(coo, 1)
		plan, err := newInspectorPlan(coo, stageW)
		switch {
		case (err == nil) != (err1 == nil) || err != nil && err.Error() != err1.Error():
			t.Fatalf("%d workers: inspector error %v, one worker %v", stageW, err, err1)
		case err == nil && (!slices.Equal(plan.rowPtr, plan1.rowPtr) || !slices.Equal(plan.in, plan1.in) || !slices.Equal(plan.vals, plan1.vals)):
			t.Fatalf("%d workers: plan differs from one worker over %v/%v", stageW, coo.R, coo.C)
		}
		var want verify.Code
		switch {
		case rows < 0 || cols < 0:
			want = verify.CodeBadObjectShape
		default:
			for e := range coo.V {
				if coo.R[e] < 0 || coo.R[e] >= int32(rows) || coo.C[e] < 0 || coo.C[e] >= int32(cols) {
					want = verify.CodeTableOOB
					break
				}
			}
			if want == "" && rows == 0 {
				want = verify.CodeBadObjectShape // an object with no cells
			}
		}

		xv := make([]float64, max(int(cols), 0))
		for j := range xv {
			xv[j] = float64(j%5 - 2)
		}
		classes := []*SparseClass{
			spmvTestClass(int(rows), chapel.RealArray(xv...)),
			{Name: "rowsum", Object: freeride.ObjectSpec{Groups: int(rows), Elems: 1, Op: robj.OpAdd},
				Kernel: func(v, _ float64) float64 { return v }},
		}
		cfg := freeride.Config{Threads: 1 + int(threads%2), SplitRows: 1 + int(split%7)}
		for _, class := range classes {
			y := make([]float64, max(int(rows), 0))
			for e, v := range coo.V {
				if want == "" {
					if class.Hot != nil {
						v *= xv[coo.C[e]]
					}
					y[coo.R[e]] += v
				}
			}
			for _, opt := range []OptLevel{OptNone, Opt2, Opt3} {
				tr, err := TranslateSparse(class, coo, opt)
				if want != "" {
					if !hasDiag(err, want, "") {
						t.Fatalf("%s %s over %dx%d %v/%v: want %s, got %v",
							class.Name, opt, rows, cols, coo.R, coo.C, want, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s %s over %dx%d %v/%v: %v", class.Name, opt, rows, cols, coo.R, coo.C, err)
				}
				if tr.hotWords != nil {
					clear(tr.hotWords)
					tr.refreshHot(stageW)
					if !slices.Equal(tr.hotWords, xv) {
						t.Fatalf("%d workers: refreshed words %v, want %v", stageW, tr.hotWords, xv)
					}
				}
				eng := freeride.New(cfg)
				res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
				if err != nil {
					eng.Close()
					t.Fatalf("%s %s: run: %v", class.Name, opt, err)
				}
				got := res.Object.Snapshot()
				eng.Close()
				for r := range y {
					if got[r] != y[r] {
						t.Fatalf("%s %s over %dx%d, %+v: y[%d] = %v, want %v",
							class.Name, opt, rows, cols, cfg, r, got[r], y[r])
					}
				}
			}
		}
	})
}
