package core

import (
	"fmt"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/verify"
)

// SparseKernel is the per-entry accumulate body of a sparse reduction: v is
// the entry's stored value, g the hot-vector element gathered at the
// entry's in-table offset (0 when the class declares no gather vector), and
// the result is accumulated into the cell of the entry's row. The executor
// owns the table walk, the gather, and the accumulate — the kernel is pure
// arithmetic, which is what lets one kernel serve every optimization level
// (SpMV: v*g; PageRank push: v*g over contributions; degree count: 1).
type SparseKernel func(v, g float64) float64

// SparseClass is the sparse analog of ReductionClass: a push reduction over
// a COO/CSR source described declaratively. The reduction object is a
// vector (Elems must be 1) with one cell per matrix row — SpMV's y, a
// histogram's bins, PageRank's rank vector. The optional gather vector Hot
// is a boxed [lo..hi] real array with one element per matrix column.
type SparseClass struct {
	// Name identifies the reduction in diagnostics.
	Name string
	// Object is the FREERIDE reduction-object shape; Groups must equal the
	// matrix row count and Elems must be 1 (scatter targets are cells of a
	// vector).
	Object freeride.ObjectSpec
	// Hot is the optional gather vector ([lo..hi] real, one element per
	// matrix column). nil for gather-free reductions (degree counting).
	Hot *chapel.Array
	// Kernel is the per-entry accumulate body.
	Kernel SparseKernel
	// Combine optionally post-processes the merged object.
	Combine func(o *robj.Object) error
	// Finalize optionally runs on the run result.
	Finalize func(r *freeride.Result) error
}

// SparseTranslation is the compiled output of TranslateSparse: the
// inspector's plan (tables + CSR-ordered values) plus the executor specs
// for the requested optimization level.
type SparseTranslation struct {
	class *SparseClass
	opt   OptLevel
	plan  *InspectorPlan

	// hotWords is the linearized gather vector (opt-2+ executors), nil
	// when the class declares none.
	hotWords []float64

	// InspectTime is the inspector's table-construction cost — the sparse
	// analog of LinearizeTime, surfaced next to pass latency in bench
	// reports so inspector overhead is never invisible.
	InspectTime time.Duration
	// HotLinearizeTime is the gather-vector linearization cost.
	HotLinearizeTime time.Duration
}

// VerifySparse statically checks a sparse class bound to an inspector plan
// at an optimization level — the sparse analog of Verify. Structural facts
// (kernel present, vector-shaped object matching the matrix rows, gather
// vector matching the matrix columns) become Pre diagnostics; the plan
// contributes its table proofs (FRV013/FRV014). Unlike the dense verifier,
// the table proofs are data-dependent by nature: they check the
// materialized entries, not a closed form, so verification necessarily runs
// after the inspector.
func VerifySparse(class *SparseClass, plan *InspectorPlan, opt OptLevel) verify.Diagnostics {
	return verify.CheckPlan(SparsePlanFor(class, plan, opt))
}

// SparsePlanFor lowers a sparse class bound to an inspector plan into the
// verifier IR — the sparse analog of PlanFor. VerifySparse checks the
// result; internal/analyze profiles it (the materialized tables carry the
// exact scatter histogram the cost analysis folds).
func SparsePlanFor(class *SparseClass, plan *InspectorPlan, opt OptLevel) *verify.Plan {
	p := &verify.Plan{Opt: int(opt), OptName: opt.String()}
	if class == nil {
		p.Class = "class"
		p.HasKernel = true
		p.Object = verify.Shape{Groups: 1, Elems: 1}
		p.Pre = verify.Diagnostics{{
			Pos: "class", Severity: verify.SeverityError, Code: verify.CodeNoKernel,
			Msg: "core: sparse translation needs a class with a kernel",
		}}
		return p
	}
	p.Class = class.Name
	if p.Class == "" {
		p.Class = "class"
	}
	p.HasKernel = class.Kernel != nil
	// The fused executor is derived from the same SparseKernel, so opt-3 is
	// always available — no FRV030 fallback warning applies.
	p.HasBlockKernel = class.Kernel != nil
	p.Object = verify.Shape{Groups: class.Object.Groups, Elems: class.Object.Elems}

	if class.Object.Elems > 1 {
		p.Pre = append(p.Pre, verify.Diagnostic{
			Pos: p.Class, Severity: verify.SeverityError, Code: verify.CodeBadObjectShape,
			Msg: fmt.Sprintf("core: sparse scatter targets are vector cells; object shape %dx%d needs Elems == 1",
				class.Object.Groups, class.Object.Elems),
		})
	}
	if plan != nil {
		if class.Object.Groups != plan.Rows() {
			p.Pre = append(p.Pre, verify.Diagnostic{
				Pos: p.Class, Severity: verify.SeverityError, Code: verify.CodeBadObjectShape,
				Msg: fmt.Sprintf("core: reduction object has %d groups but the sparse matrix has %d rows; each row scatters into its own cell",
					class.Object.Groups, plan.Rows()),
			})
		}
		if class.Hot != nil {
			hotTy := class.Hot.Ty
			if hotTy.Kind != chapel.KindArray || hotTy.Elem.Kind != chapel.KindReal {
				p.Pre = append(p.Pre, verify.Diagnostic{
					Pos: p.Class + ": hot[0]", Severity: verify.SeverityError, Code: verify.CodeHotShape,
					Msg: fmt.Sprintf("core: sparse gather vector must be a real vector, got %s", hotTy),
				})
			} else if class.Hot.Len() != plan.Cols() {
				p.Pre = append(p.Pre, verify.Diagnostic{
					Pos: p.Class + ": hot[0]", Severity: verify.SeverityError, Code: verify.CodeHotShape,
					Msg: fmt.Sprintf("core: gather vector holds %d elements but the sparse matrix has %d columns; the in table gathers one element per column",
						class.Hot.Len(), plan.Cols()),
				})
			}
		}
		// The plan's proof obligations: every table entry in bounds, one
		// entry per nonzero.
		plan.Verify(p)
	}
	return p
}

// TranslateSparse compiles a SparseClass over a COO source into a FREERIDE
// execution: the inspector sorts the source into CSR tables once at
// translate time, refusing rows outside the matrix (FRV013); the verifier
// proves the tables safe (rejecting with FRV013/FRV014 on out-of-range
// columns or non-total row pointers); the executor specs then walk the
// tables with no per-element checks.
func TranslateSparse(class *SparseClass, coo *SparseCOO, opt OptLevel) (*SparseTranslation, error) {
	if class == nil {
		return nil, VerifySparse(nil, nil, opt).Err()
	}
	plan, err := NewInspectorPlan(coo)
	if err != nil {
		return nil, err
	}
	if err := VerifySparse(class, plan, opt).Err(); err != nil {
		return nil, err
	}
	tr := &SparseTranslation{class: class, opt: opt, plan: plan, InspectTime: plan.BuildTime()}
	if class.Hot != nil && opt >= Opt2 {
		t0 := time.Now()
		tr.hotWords, err = LinearizeToWords(class.Hot)
		if err != nil {
			return nil, fmt.Errorf("core: gather vector: %w", err)
		}
		tr.HotLinearizeTime = time.Since(t0)
	}
	return tr, nil
}

// Opt reports the translation's optimization level.
func (t *SparseTranslation) Opt() OptLevel { return t.opt }

// Plan exposes the inspector plan (tables, build cost, logical shape).
func (t *SparseTranslation) Plan() *InspectorPlan { return t.plan }

// AccessPlan returns the translation's addressing model — always the
// inspector plan for sparse translations.
func (t *SparseTranslation) AccessPlan() AccessPlan { return t.plan }

// RefreshHot re-linearizes the gather vector after its boxed source changed
// (no-op below opt-2, whose gather is live through the boxed array). Call
// between iterations, e.g. after a PageRank step updates the rank vector.
func (t *SparseTranslation) RefreshHot() {
	if t.hotWords == nil || t.class.Hot == nil {
		return
	}
	t0 := time.Now()
	wordsInto(t.hotWords, 0, t.class.Hot)
	t.HotLinearizeTime += time.Since(t0)
}

// Source returns the CSR-ordered nonzero values as the FREERIDE data
// source: one engine row per nonzero entry, one word per row. Splits over
// this source are subranges of the entry domain, which is exactly the
// domain the verifier proved the index tables total over.
func (t *SparseTranslation) Source() dataset.Source {
	return NewWordSource(t.plan.vals, t.plan.nnz, 1)
}

// Spec assembles the FREERIDE spec whose executor walks the inspector's
// CSR tables at the translation's optimization level:
//
//	generated — per-entry, gather through the boxed Chapel vector
//	opt-1/2   — per-entry, gather on linearized words (opt-1 keeps the
//	            boxed gather, matching the dense levels' hot treatment)
//	opt-3     — one call per split gathers the split's x, then folds
//	            each row piece in a register and accumulates it straight
//	            into the shared object under the configured strategy
//
// Every executor binary-searches rowPtr once per split for the row holding
// its first entry and then walks the row pointers forward. Opt-3 first
// copies x[in[e]] for the split's entries into a worker scratch, in a loop
// with no call and no branch, so the irregular reads are all in flight
// before the fold needs them. The fold keeps a row piece's running value in
// a register, folds each kernel(v, g) into it with the object's Op.Apply,
// and calls Accumulate once per non-empty row piece instead of once per
// nonzero. A cell whose row no split cuts becomes id ⊕ (a ⊕ b ⊕ …) instead
// of ((id ⊕ a) ⊕ b) ⊕ …, which is the same bits for OpAdd, and for
// OpMin/OpMax whenever no NaN is in the piece. Every level accumulates
// straight into the shared object: that is what §III's sharing-strategy
// comparison measures.
func (t *SparseTranslation) Spec() freeride.Spec {
	spec := freeride.Spec{Object: t.class.Object, Combine: t.class.Combine, Finalize: t.class.Finalize}
	kernel := t.class.Kernel
	rowPtr, in := t.plan.rowPtr, t.plan.in
	// Below opt-2 the gather walks the boxed Chapel vector per entry — the
	// same boxed-hot-state overhead the dense levels carry; from opt-2 on it
	// reads the words linearized once at translate time.
	hot, x := t.class.Hot, t.hotWords

	switch {
	case hot == nil:
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			r := rowOf(rowPtr, args.Begin)
			for i := 0; i < args.NumRows; i++ {
				for args.Begin+i >= int(rowPtr[r+1]) {
					r++
				}
				args.Accumulate(r, 0, kernel(args.Data[i], 0))
			}
			return nil
		}
	case x == nil:
		lo := hot.Ty.Lo
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			r := rowOf(rowPtr, args.Begin)
			for i := 0; i < args.NumRows; i++ {
				e := args.Begin + i
				for e >= int(rowPtr[r+1]) {
					r++
				}
				g := hot.At(lo + int(in[e])).(*chapel.Real).Val
				args.Accumulate(r, 0, kernel(args.Data[i], g))
			}
			return nil
		}
	default:
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			r := rowOf(rowPtr, args.Begin)
			for i := 0; i < args.NumRows; i++ {
				e := args.Begin + i
				for e >= int(rowPtr[r+1]) {
					r++
				}
				args.Accumulate(r, 0, kernel(args.Data[i], x[in[e]]))
			}
			return nil
		}
	}
	if t.opt < Opt3 {
		return spec
	}
	// Opt-3 replaces the per-entry executor: one call per split, one
	// Accumulate per CSR row piece.
	op := t.class.Object.Op
	if x == nil {
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			n, b := args.NumRows, args.Begin
			vals := args.Data[:n]
			for r, e := rowOf(rowPtr, b), 0; e < n; r++ {
				end := min(int(rowPtr[r+1])-b, n)
				if e == end {
					continue
				}
				run := kernel(vals[e], 0)
				for e++; e < end; e++ {
					run = op.Apply(run, kernel(vals[e], 0))
				}
				args.Accumulate(r, 0, run)
			}
			return nil
		}
		return spec
	}
	spec.Reduction = func(args *freeride.ReductionArgs) error {
		n, b := args.NumRows, args.Begin
		cols := in[b : b+n]
		g := args.Scratch(0, n)[:len(cols)]
		for e, c := range cols {
			g[e] = x[c]
		}
		vals := args.Data[:n]
		for r, e := rowOf(rowPtr, b), 0; e < n; r++ {
			end := min(int(rowPtr[r+1])-b, n)
			if e == end {
				continue
			}
			run := kernel(vals[e], g[e])
			for e++; e < end; e++ {
				run = op.Apply(run, kernel(vals[e], g[e]))
			}
			args.Accumulate(r, 0, run)
		}
		return nil
	}
	return spec
}

// rowOf returns the row holding entry e of a CSR table: the last r with
// rowPtr[r] <= e, for e in [0, rowPtr[len(rowPtr)-1]). Past the last entry
// (an empty split) it returns a row that no loop then reads.
func rowOf(rowPtr []int32, e int) int {
	lo, hi := 0, len(rowPtr)-1 // rowPtr[lo] <= e < rowPtr[hi]
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if int(rowPtr[mid]) <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
