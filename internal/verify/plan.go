package verify

// Plan is the verifier's intermediate representation of one reduction class
// bound to a dataset type and an optimization level — the declarative facts
// internal/core can establish statically, with all Chapel types already
// lowered to word counts and index-map constants. CheckPlan proves the
// emitted loop nest safe (or rejects it) from these numbers alone.
type Plan struct {
	// Class names the reduction in diagnostics.
	Class string
	// Opt is the numeric optimization level (0..3); OptName its display
	// name ("generated", "opt-1", ...).
	Opt     int
	OptName string
	// HasKernel / HasBlockKernel report which accumulate bodies the class
	// declares.
	HasKernel      bool
	HasBlockKernel bool
	// Object is the reduction-object shape the class allocates.
	Object Shape
	// Data is the dataset access, nil when plan construction already failed
	// (the failure is then recorded in Pre).
	Data *Access
	// Hot lists the hot-variable accesses, one per declared HotVar.
	Hot []Access
	// Tables lists the inspector-materialized index tables (nil for
	// closed-form affine plans). Each is proven total over its domain and
	// element-wise in bounds — the table-lookup analog of the affine
	// off(i,k) proofs in checkAccess.
	Tables []TableAccess
	// Pre carries diagnostics produced while lowering the class into the
	// plan (unresolvable paths, nil inputs); CheckPlan prepends them.
	Pre Diagnostics
}

// Shape is a reduction-object shape: Groups × Elems cells.
type Shape struct {
	Groups, Elems int
}

// Access describes one linearized two-level access pattern: the loop nest
// touches word offsets
//
//	off(i, k) = U0*i + Off0 + U1*k    for i ∈ [0,Elems), k ∈ [0,InnerLen)
//
// in a buffer of WordLen words — exactly the hoisted-index constants the
// translator bakes into the emitted reduction (strength-reduced base
// U0*i+Off0, inner stride U1). Boxed accesses (generated/opt-1 hot
// variables) carry no linear map; for those only the structural facts are
// checked.
type Access struct {
	// Name locates the access in diagnostics: "data" or "hot[i]".
	Name string
	// Boxed marks a boxed-traversal access with no linear index map.
	Boxed bool
	// Elems is the outer domain length (rows), InnerLen the inner run
	// length in elements.
	Elems, InnerLen int
	// U0 is the outer (row) stride in words, Off0 the hoisted base offset,
	// U1 the inner stride in words.
	U0, Off0, U1 int
	// WordLen is the linearized buffer length in words.
	WordLen int
	// Levels is the addressing depth after promotion; must be 2.
	Levels int
	// AllReal reports whether the access's full type is an all-real layout.
	AllReal bool
}

// TableAccess describes one inspector-materialized index table: a map from
// the executor's iteration domain [0, Domain) to targets in [0, Bound) —
// object cells for scatter tables, hot-vector offsets for gather tables.
// Unlike the affine Access, the map has no closed form; the proof obligation
// is discharged by checking the materialized entries themselves.
//
// A table holds the map in one of two encodings:
//
//   - element-wise (any Name but "rowPtr"): Entries[i] is element i's
//     target. Totality is exactly one entry per domain element; bounds are
//     every entry in [0, Bound).
//   - row pointers (Name "rowPtr", the CSR scatter table): target r owns
//     the elements [Entries[r], Entries[r+1]). Entries holds Bound+1
//     pointers with Entries[0] = 0, never decreasing, and
//     Entries[Bound] = Domain; together these put every domain element in
//     exactly one target in [0, Bound), so totality implies bounds.
//
// Scatter tables are deliberately NOT required to be injective: the
// reduction object's accumulate is associative, so aliased targets merge
// correctly — that aliasing is the whole point of a sparse push reduction.
type TableAccess struct {
	// Name locates the table in diagnostics and selects its encoding:
	// "rowPtr" (CSR scatter targets) or an element-wise table such as "in"
	// (gather offsets).
	Name string
	// Domain is the executor's iteration-domain length the table must
	// cover (the nonzero count for COO/CSR sources).
	Domain int
	// Entries are the materialized table values: one per domain element,
	// or Bound+1 row pointers.
	Entries []int32
	// Bound is the exclusive upper bound every entry must satisfy.
	Bound int
}

// maxTouched returns the one-past-the-end word offset the strength-reduced
// loop nest can touch: the last row's base plus the full inner run
// (InnerLen elements of U1 words each, matching the run slice
// words[base : base+InnerLen*U1] the translator hands the kernel).
func (a Access) maxTouched() int {
	if a.Elems == 0 {
		return 0
	}
	return a.U0*(a.Elems-1) + a.Off0 + a.InnerLen*a.U1
}

// CheckPlan verifies a plan and returns every finding, errors first in
// encounter order. A plan with no error-severity findings is safe to
// translate: every word offset the emitted loop nest can touch is proven in
// bounds, the index map is total and injective over the split domain, the
// reduction-object shape is allocatable, and the requested optimization
// level is legal for the class — which is what lets the hot-path accessors
// (Meta.ComputeIndex, robj cell addressing, the opt-3 BlockView) stay
// panic-free-by-proof instead of re-checking bounds per element.
func CheckPlan(p *Plan) Diagnostics {
	ds := append(Diagnostics(nil), p.Pre...)
	pos := p.Class
	if pos == "" {
		pos = "class"
	}

	if !p.HasKernel {
		ds = errorf(ds, pos, CodeNoKernel, "core: translation needs a class with a kernel")
	}
	if p.Opt < 0 || p.Opt > 3 {
		ds = errorf(ds, pos, CodeBadOptLevel, "unknown optimization level %s: levels are generated, opt-1, opt-2, opt-3", p.OptName)
	}
	if p.Object.Groups <= 0 || p.Object.Elems <= 0 {
		ds = errorf(ds, pos, CodeBadObjectShape,
			"reduction object shape %dx%d has no cells; FREERIDE's accumulate(group, elem, value) needs Groups >= 1 and Elems >= 1",
			p.Object.Groups, p.Object.Elems)
	}
	if p.Data != nil {
		ds = checkAccess(ds, pos, *p.Data, CodeNotAllReal)
	}
	for _, h := range p.Hot {
		if h.Boxed {
			continue // shape already validated during lowering (CodeHotShape)
		}
		ds = checkAccess(ds, pos, h, CodeHotNotAllReal)
	}
	for _, t := range p.Tables {
		ds = checkTable(ds, pos, t)
	}
	if p.Opt == 3 && p.HasKernel && !p.HasBlockKernel {
		ds = warnf(ds, pos, CodeOpt3NoBlockKernel,
			"opt-3 requested but the class declares no BlockKernel; execution falls back to the opt-2 per-element shape")
	}
	return ds
}

// checkAccess proves one linear access safe: word-aligned all-real layout,
// two-level addressing, a total and injective index map, and every
// touchable offset inside the buffer. notRealCode distinguishes the dataset
// (CodeNotAllReal) from hot variables (CodeHotNotAllReal).
func checkAccess(ds Diagnostics, pos string, a Access, notRealCode Code) Diagnostics {
	at := pos + ": " + a.Name
	if !a.AllReal {
		if notRealCode == CodeNotAllReal {
			ds = errorf(ds, at, notRealCode, "FREERIDE translation needs an all-real dataset")
		} else {
			ds = errorf(ds, at, notRealCode, "opt-2 linearization needs all-real hot state")
		}
		return ds // the remaining facts are meaningless without a word view
	}
	if a.Levels != 2 {
		ds = errorf(ds, at, CodeBadLevels, "access needs 2-level addressing (FREERIDE's simple 2-D array view), got %d levels", a.Levels)
		return ds
	}
	// Totality: the map must be defined (non-degenerate) over the whole
	// split domain [0,Elems) × [0,InnerLen).
	if a.Elems < 0 || a.InnerLen <= 0 || a.U0 <= 0 || a.U1 <= 0 || a.Off0 < 0 {
		ds = errorf(ds, at, CodeMapNotTotal,
			"index map off(i,k) = %d*i + %d + %d*k is not total over rows=%d, inner=%d: strides must be positive and the base non-negative",
			a.U0, a.Off0, a.U1, a.Elems, a.InnerLen)
		return ds
	}
	// Bounds: the hoisted-index loop nest touches [Off0, maxTouched); prove
	// it inside the buffer so per-element bounds checks can be elided.
	if max := a.maxTouched(); max > a.WordLen {
		ds = errorf(ds, at, CodeOOBOffset,
			"loop nest touches words [%d,%d) of a %d-word buffer (rows=%d, row stride=%d, inner run=%d words)",
			a.Off0, max, a.WordLen, a.Elems, a.U0, a.InnerLen*a.U1)
	}
	// Word-count consistency: the buffer must hold exactly the rows the
	// loop nest assumes (rows × row stride), or splits computed from the
	// row count would disagree with the storage.
	if a.Name == "data" && a.Elems*a.U0 != a.WordLen {
		ds = errorf(ds, at, CodeWordCount,
			"linearized buffer holds %d words but %d rows x %d words/row = %d",
			a.WordLen, a.Elems, a.U0, a.Elems*a.U0)
	}
	// Injectivity: distinct (i,k) must hit distinct words. Within a row,
	// positive U1 separates the k's; across rows, the row stride must be at
	// least the row span.
	if a.U0 < a.InnerLen*a.U1 {
		ds = errorf(ds, at, CodeMapNotInjective,
			"index map is not injective: row stride %d words is smaller than the row span %d words, so consecutive rows alias",
			a.U0, a.InnerLen*a.U1)
	}
	return ds
}

// checkTable proves one index table safe: total over its domain (exactly
// one target per iteration) and every target inside [0, Bound). With both
// facts established at translate time, the executor's table walk — the
// row pointers into the worker-local accumulator, in[Begin+i] into the hot
// vector — needs no per-element bounds checks, mirroring how checkAccess
// lets the affine hot path elide them.
func checkTable(ds Diagnostics, pos string, t TableAccess) Diagnostics {
	at := pos + ": table " + t.Name
	if t.Name == "rowPtr" {
		return checkRowPtr(ds, at, t)
	}
	if t.Domain < 0 || len(t.Entries) != t.Domain {
		ds = errorf(ds, at, CodeTableNotTotal,
			"index table holds %d entries for a domain of %d; the inspector must materialize exactly one target per split-domain element",
			len(t.Entries), t.Domain)
		return ds // bounds findings would just repeat the mismatch
	}
	if t.Bound <= 0 && t.Domain > 0 {
		ds = errorf(ds, at, CodeTableOOB,
			"index table targets a space of %d cells; a non-empty table needs Bound >= 1", t.Bound)
		return ds
	}
	for i, e := range t.Entries {
		if e < 0 || int(e) >= t.Bound {
			ds = errorf(ds, at, CodeTableOOB,
				"entry %d maps to %d, outside the target space [0,%d)", i, e, t.Bound)
			return ds // one finding per table; the first OOB entry names the bug
		}
	}
	return ds
}

// checkRowPtr proves a CSR row-pointer table total: Bound+1 pointers that
// start at 0, never decrease and end at Domain. One finding per table; the
// first broken pointer names the bug.
func checkRowPtr(ds Diagnostics, at string, t TableAccess) Diagnostics {
	p := t.Entries
	switch {
	case t.Domain < 0 || t.Bound < 0 || len(p) != t.Bound+1:
		return errorf(ds, at, CodeTableNotTotal,
			"row pointer table holds %d pointers for %d rows and a domain of %d; CSR needs rows+1 pointers",
			len(p), t.Bound, t.Domain)
	case p[0] != 0:
		return errorf(ds, at, CodeTableNotTotal,
			"row pointers start at %d; row 0 must start at element 0", p[0])
	}
	for r := 0; r < t.Bound; r++ {
		if p[r+1] < p[r] {
			return errorf(ds, at, CodeTableNotTotal,
				"row pointers decrease from %d to %d at row %d", p[r], p[r+1], r)
		}
	}
	if int(p[t.Bound]) != t.Domain {
		return errorf(ds, at, CodeTableNotTotal,
			"row pointers end at %d for a domain of %d; every domain element needs exactly one row",
			p[t.Bound], t.Domain)
	}
	return ds
}

// SpecPlan is the verifier's view of a FREERIDE spec: which callbacks are
// set and the declared object shape. internal/freeride lowers its Spec into
// this before every run.
type SpecPlan struct {
	HasReduction      bool
	HasBlockReduction bool
	Object            Shape
}

// CheckSpec verifies a FREERIDE spec's legality — the structural checks the
// engine used to scatter through run() as fmt.Errorf, now one diagnostic
// pass that runs before any worker starts. The reduction object is the only
// state a pass carries, so every spec must declare one with cells.
func CheckSpec(p SpecPlan) Diagnostics {
	var ds Diagnostics
	const pos = "spec"
	if !p.HasReduction && !p.HasBlockReduction {
		ds = errorf(ds, pos, CodeNoReduction, "freeride: Spec.Reduction (or BlockReduction) is required")
	}
	switch {
	case p.Object.Groups == 0 && p.Object.Elems == 0:
		ds = errorf(ds, pos, CodeNoState,
			"freeride: spec declares no reduction object; set Object.Groups and Object.Elems (FREERIDE's reduction_object_alloc)")
	case p.Object.Groups <= 0 || p.Object.Elems <= 0:
		ds = errorf(ds, pos, CodeBadObjectShape,
			"freeride: reduction object shape %dx%d has no cells; declare Groups >= 1 and Elems >= 1",
			p.Object.Groups, p.Object.Elems)
	}
	return ds
}
