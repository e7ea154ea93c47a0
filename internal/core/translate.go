package core

import (
	"fmt"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// OptLevel selects which of the paper's compiler-generated code shapes the
// translator emits (§V), plus one level beyond the paper:
//
//	OptNone — "generated": ComputeIndex evaluated for every innermost
//	          element, hot variables read through boxed Chapel structures.
//	Opt1    — strength reduction: the index is hoisted out of the innermost
//	          loop and the contiguous run is walked directly; hot variables
//	          still go through boxed structures.
//	Opt2    — Opt1 plus linearization of the frequently-accessed variables,
//	          which are then read "through the mapping algorithm" on flat
//	          storage.
//	Opt3    — Opt2 plus kernel fusion: the per-element callback is replaced
//	          by a split-granular block kernel that walks the linearized
//	          words directly and accumulates into a worker-local dense
//	          buffer, flushed to the shared object once per split. The
//	          paper's compiled C output gets this batching for free from
//	          inlining; our runtime must perform it explicitly.
type OptLevel int

const (
	// OptNone is the unoptimized generated code.
	OptNone OptLevel = iota
	// Opt1 adds strength reduction of the innermost ComputeIndex.
	Opt1
	// Opt2 adds hot-variable linearization on top of Opt1.
	Opt2
	// Opt3 adds split-granular kernel fusion on top of Opt2. It requires the
	// class to declare a BlockKernel; classes without one fall back to the
	// Opt2 execution shape.
	Opt3
)

// String returns the paper's name for the level.
func (o OptLevel) String() string {
	switch o {
	case OptNone:
		return "generated"
	case Opt1:
		return "opt-1"
	case Opt2:
		return "opt-2"
	case Opt3:
		return "opt-3"
	default:
		return fmt.Sprintf("opt(%d)", int(o))
	}
}

// OptLevels lists the levels in increasing optimization order.
func OptLevels() []OptLevel { return []OptLevel{OptNone, Opt1, Opt2, Opt3} }

// Vec is the translator's view of one data element's innermost contiguous
// run of reals (e.g. one point's coordinates). The kernel is written once
// against Vec; the translator binds the access mode the optimization level
// dictates. Vec is a concrete struct (not an interface) so that the
// strength-reduced path compiles to a direct slice load — matching the
// paper, where opt-1/opt-2 output is ordinary C array code while the
// generated version calls computeIndex per element.
type Vec struct {
	// run is the strength-reduced view (Opt1/Opt2): the element's words,
	// base offset already applied. nil in generated mode.
	run []float64
	// Generated-mode state: the whole linearized buffer plus the mapping
	// metadata, with ComputeIndex evaluated on every access.
	words []float64
	meta  *Meta
	row   int // domain index at level 0
}

// Len is the number of reals in the run.
func (v *Vec) Len() int {
	if v.run != nil {
		return len(v.run)
	}
	return v.meta.InnerLen
}

// At reads the k-th real (0-based within the run). The strength-reduced
// load is the inlined fast path; generated mode leaves through the outlined
// atMapped.
func (v *Vec) At(k int) float64 {
	if v.run != nil {
		return v.run[k]
	}
	return v.atMapped(k)
}

// atMapped is the generated-mode access: Algorithm 3 from the top for every
// element, Fig. 8's pre-optimization loop body. Kept out of line so At stays
// inlinable.
//
//go:noinline
func (v *Vec) atMapped(k int) float64 {
	idx := [2]int{v.row, v.meta.Lo[1] + k}
	return v.words[v.meta.ComputeIndex(idx[:]...)]
}

// Row materializes the element's run as a contiguous slice of length Len().
// The strength-reduced modes return the run zero-copy (the inlined fast
// path); generated mode evaluates ComputeIndex once per element of the run
// into scratch — exactly the Fig. 8 "after linearization" loop before
// strength reduction. The per-element evaluations land on the same
// contiguous run the opt-1 view walks directly (the linearized layout
// guarantees it), so the two modes return identical values and differ only
// in cost — generated mode pays the recomputation deliberately, to model the
// paper's unoptimized output. The equality is pinned by
// TestGeneratedRowMatchesOpt1Row. scratch must have length at least Len()
// (use freeride.ReductionArgs.Scratch).
func (v *Vec) Row(scratch []float64) []float64 {
	if v.run != nil {
		return v.run
	}
	return v.rowMapped(scratch)
}

// rowMapped is Row's generated-mode body, kept out of line so Row stays
// inlinable.
//
//go:noinline
func (v *Vec) rowMapped(scratch []float64) []float64 {
	n := v.meta.InnerLen
	scratch = scratch[:n]
	for k := 0; k < n; k++ {
		scratch[k] = v.atMapped(k)
	}
	return scratch
}

// StateVec is the translator's view of a frequently-accessed ("hot")
// variable such as k-means' centroids: At(i, j) reads the j-th real of the
// i-th element, in the variable's declared domains. In generated/opt-1 mode
// every access walks the boxed Chapel structure (§V's overhead source 3);
// in opt-2 mode the variable has been linearized and the access is the
// mapping algorithm on dense words.
type StateVec struct {
	// Opt2 path: flat words plus the two-level mapping constants (Algorithm
	// 3 specialized to levels=2) with the domain low bounds folded in at
	// build time: element (i, j) lives at flat[u0*i+u1*j+atOff] and row i
	// starts at flat[u0*i+rowOff].
	flat                  []float64
	u0, u1, rowOff, atOff int
	// unit is the layout decision bound at build time for the inlined fast
	// paths of At and Row: linearized with inner stride 1, which is what every
	// real-array hot variable linearizes to. A one-word flag rather than a
	// flat != nil test because that is what keeps both methods inside the
	// inliner's budget (TestHotPathInlines).
	unit bool
	// dense is the whole variable as one elems×width row-major block, bound
	// once at build time when the linearized layout allows it; nil otherwise
	// (boxed mode, inner stride != 1, padding between rows). refresh rewrites
	// flat in place, so the view never goes stale.
	dense []float64
	// Boxed path (generated/opt-1).
	boxed *boxedState
	// shape: level-0 length, inner run length, inner domain low bound
	elems, width, lo1 int
	src               *chapel.Array
}

// At reads element (i, j) in the variable's domain indices. The linearized
// unit-stride load inlines into the kernel; every other mode leaves through
// the outlined atSlow.
func (s *StateVec) At(i, j int) float64 {
	if s.unit {
		return s.flat[s.u0*i+j+s.atOff]
	}
	return s.atSlow(i, j)
}

// atSlow is At outside the fast path: the mapping algorithm with an inner
// stride, or the boxed traversal (generated/opt-1). Kept out of line so At
// stays inlinable.
//
//go:noinline
func (s *StateVec) atSlow(i, j int) float64 {
	if s.flat != nil {
		return s.flat[s.u0*i+s.u1*j+s.atOff]
	}
	return s.boxed.at(i, j)
}

// Row returns element i's reals as a contiguous slice of length Width(). In
// opt-2 mode this is a zero-copy view of the linearized words (the mapping
// arithmetic runs once per row, which is what the paper's generated-then-
// compiled C achieves through loop-invariant hoisting) and inlines into the
// kernel. In boxed mode the row is materialized into scratch through the
// boxed structure, paying the per-element traversal cost opt-2 exists to
// remove; scratch must have length at least Width() (use
// freeride.ReductionArgs.Scratch).
func (s *StateVec) Row(i int, scratch []float64) []float64 {
	if s.unit {
		return s.flat[s.u0*i+s.rowOff:][:s.width]
	}
	return s.rowSlow(i, scratch)
}

// rowSlow is Row outside the fast path: element i gathered into scratch one
// At at a time. Kept out of line so Row stays inlinable.
//
//go:noinline
func (s *StateVec) rowSlow(i int, scratch []float64) []float64 {
	scratch = scratch[:s.width]
	for j := range scratch {
		scratch[j] = s.atSlow(i, s.lo1+j)
	}
	return scratch
}

// Dense returns the whole linearized hot variable as one contiguous
// elems×width row-major block. It is the fully-devirtualized view kernels
// fetch once and then walk with no mapping arithmetic and no branch per
// access. ok is false in boxed mode (generated/opt-1) or when the linearized
// layout is not dense (inner unit stride != 1 or padding between rows) —
// callers fall back to Row/At.
func (s *StateVec) Dense() ([]float64, bool) {
	return s.dense, s.dense != nil
}

// Elems reports the level-0 domain length.
func (s *StateVec) Elems() int { return s.elems }

// Width reports the inner run length.
func (s *StateVec) Width() int { return s.width }

// refresh re-linearizes the boxed source into the flat words after the
// source changed (no-op for boxed mode, whose access is live).
func (s *StateVec) refresh() {
	if s.flat != nil {
		wordsInto(s.flat, 0, s.src)
	}
}

// boxedState holds the pre-resolved field index for boxed traversal.
type boxedState struct {
	root   *chapel.Array
	field  int  // record field between the two array levels, or -1
	vector bool // [1..n] real addressed as a single 1×n element
}

// at walks the boxed structure: array element, optional record field,
// inner array element — pointer chasing and dynamic type switches on every
// access, the cost opt-2 exists to remove.
func (s *boxedState) at(i, j int) float64 {
	if s.vector {
		return s.root.At(j).(*chapel.Real).Val
	}
	e := s.root.At(i)
	if s.field >= 0 {
		e = e.(*chapel.Record).Fields[s.field]
	}
	return e.(*chapel.Array).At(j).(*chapel.Real).Val
}

// NewBoxedStateVec builds the boxed (generated/opt-1) hot-variable view.
// The variable must be a two-level structure: [1..n] record with a real
// array field (path names the field), [1..n][1..m] real, or [1..n] real
// (addressed as n×1).
func NewBoxedStateVec(root *chapel.Array, path []string) (*StateVec, error) {
	b := &boxedState{root: root, field: -1}
	s := &StateVec{boxed: b, elems: root.Len(), src: root}
	elem := root.Ty.Elem
	switch {
	case elem.Kind == chapel.KindArray && len(path) == 0:
		s.width = elem.Len()
		s.lo1 = elem.Lo
	case elem.Kind == chapel.KindRecord && len(path) == 1:
		f := elem.FieldIndex(path[0])
		if f < 0 {
			return nil, fmt.Errorf("core: record %s has no field %q", elem.Name, path[0])
		}
		inner := elem.Fields[f].Type
		if inner.Kind != chapel.KindArray || inner.Elem.Kind != chapel.KindReal {
			return nil, fmt.Errorf("core: hot path %v must select a real array, got %s", path, inner)
		}
		b.field = f
		s.width = inner.Len()
		s.lo1 = inner.Lo
	case elem.Kind == chapel.KindReal && len(path) == 0:
		// A flat vector is addressed as one 1×n element.
		b.vector = true
		s.lo1 = root.Ty.Lo
		s.elems = 1
		s.width = root.Len()
	default:
		return nil, fmt.Errorf("core: unsupported hot variable shape %s with path %v", root.Ty, path)
	}
	return s, nil
}

// NewWordStateVec builds the linearized (opt-2) hot-variable view: the
// variable is linearized once and subsequently addressed with the mapping
// algorithm on dense words. Call StateVec.refresh (via
// Translation.RefreshHotVars) after mutating the boxed source.
func NewWordStateVec(root *chapel.Array, path []string) (*StateVec, error) {
	meta, err := MetaFor(root.Ty, path...)
	if err != nil {
		return nil, err
	}
	promoteFlatVectorMeta(meta, root.Len())
	if meta.Levels != 2 {
		return nil, fmt.Errorf("core: hot variable needs 2-level addressing, path %v gives %d", path, meta.Levels)
	}
	wmeta, err := meta.Words()
	if err != nil {
		return nil, err
	}
	words, err := LinearizeToWords(root)
	if err != nil {
		return nil, err
	}
	elems := root.Len()
	if root.Ty.Elem.Kind == chapel.KindReal && len(path) == 0 {
		elems = 1 // vector promoted to 1×n
	}
	ap := AffinePlanFromMeta(wmeta, elems, len(words))
	s := &StateVec{
		flat:   words,
		u0:     ap.U0,
		u1:     ap.U1,
		rowOff: ap.Off0 - ap.U0*wmeta.Lo[0],
		unit:   ap.U1 == 1,
		elems:  elems,
		width:  wmeta.InnerLen,
		lo1:    wmeta.Lo[1],
		src:    root,
	}
	s.atOff = s.rowOff - ap.U1*s.lo1
	if s.unit && ap.U0 == s.width {
		s.dense = words[ap.Off0 : ap.Off0+elems*s.width]
	}
	return s, nil
}

// promoteFlatDataMeta rewrites a 1-level meta ([1..n] of a primitive) as an
// n×1 two-level access: each primitive is one data element (row), matching
// FREERIDE's view of a flat dataset.
func promoteFlatDataMeta(meta *Meta) {
	if meta.Levels != 1 {
		return
	}
	meta.Levels = 2
	meta.UnitSize = append(meta.UnitSize, meta.UnitSize[0])
	meta.UnitOffset = append(meta.UnitOffset, []int{meta.LeafOffset})
	meta.Position = append(meta.Position, []int{0})
	meta.LeafOffset = 0
	meta.Lo = append(meta.Lo, 1)
	meta.InnerLen = 1
}

// promoteFlatVectorMeta rewrites a 1-level meta ([1..n] of a primitive) as
// a 1×n two-level access: the whole vector is a single element whose row is
// the n values — the natural addressing for hot-variable vectors like PCA's
// mean (At(1, j), Row(1)).
func promoteFlatVectorMeta(meta *Meta, n int) {
	if meta.Levels != 1 {
		return
	}
	inner := meta.UnitSize[0]
	meta.Levels = 2
	meta.UnitSize = []int{n * inner, inner}
	meta.UnitOffset = [][]int{{meta.LeafOffset}}
	meta.Position = [][]int{{0}}
	meta.LeafOffset = 0
	meta.Lo = []int{1, meta.Lo[0]}
	meta.InnerLen = n
}

// Kernel is the translated accumulate body: it processes one data element,
// reading the element through elem, hot variables through hot, and updating
// the reduction object through args.Accumulate.
type Kernel func(elem *Vec, hot []*StateVec, args *freeride.ReductionArgs)

// BlockView carries the strength-reduced access constants an opt-3 block
// kernel needs to walk a split's elements directly on the linearized words:
// element i's run is Words[RowStride*i+RunOff : +RunLen] (i global, so the
// split starts at args.Begin). All bounds are established once per
// translation, letting the kernel's inner loops run on plain slices with no
// Vec branch or ComputeIndex per access.
type BlockView struct {
	// Words is the linearized dataset, word units.
	Words []float64
	// RowStride is the number of words per top-level data element.
	RowStride int
	// RunOff is the pre-computed offset of the real run within an element.
	RunOff int
	// RunLen is the run length in words.
	RunLen int
}

// BlockKernel is the fused split-granular accumulate body used at Opt3: one
// call processes args' whole split, reading elements through view (or
// args.Data) and hot variables preferably through StateVec.Dense, and
// accumulating into the worker-local buffer args.Acc() — the engine flushes
// it into the shared object once per split. Results must be independent of
// split order and bit-identical to running Kernel per element.
type BlockKernel func(args *freeride.BlockArgs, view BlockView, hot []*StateVec) error

// HotVar declares a frequently-accessed variable for the kernel: a boxed
// two-level structure (array of records with a real array field, array of
// real arrays, or array of reals) plus the field path to its real run.
type HotVar struct {
	Value *chapel.Array
	Path  []string
}

// ReductionClass is the translator's input: the Chapel-side reduction
// (paper Fig. 3) described declaratively — the reduction-object shape, the
// access path from a data element to its real run, the hot variables, and
// the accumulate kernel.
type ReductionClass struct {
	// Name identifies the reduction in diagnostics.
	Name string
	// Object is the FREERIDE reduction-object shape to allocate.
	Object freeride.ObjectSpec
	// Path selects the real run inside one data element (empty when the
	// element itself is a real array or a single real).
	Path []string
	// HotVars lists the structures the kernel reads for every element.
	HotVars []HotVar
	// Kernel is the per-element accumulate body.
	Kernel Kernel
	// BlockKernel, when set, is the fused split-granular accumulate body the
	// translator wires at Opt3. Classes without one still translate at Opt3
	// but execute with the Opt2 per-element shape.
	BlockKernel BlockKernel
	// Combine optionally post-processes the merged object (combination_t).
	Combine func(o *robj.Object) error
	// Finalize optionally runs on the run result (finalize_t).
	Finalize func(r *freeride.Result) error
}

// Translation is compiled, executable output of Translate: a FREERIDE spec
// plus the linearized input it runs over.
type Translation struct {
	class *ReductionClass

	words []float64
	meta  *Meta // word units, for the data
	rows  int
	cols  int // words per element

	hot []*StateVec

	// spec is the executor for the opt level, bound once when the
	// translation is built: every pass of an iterative job runs the same
	// closures.
	spec freeride.Spec

	// LinearizeTime is the cost of the input linearization (the first
	// overhead source in §V; not optimized by opt-1/opt-2). The paper pays
	// it on one core; here it runs on up to GOMAXPROCS workers, one per
	// grain of elements (LinearizeToWords).
	LinearizeTime time.Duration
	// HotLinearizeTime is the opt-2 hot-variable linearization cost.
	HotLinearizeTime time.Duration
}

// TranslateOptions tunes the translation. It has no fields: the input is
// always linearized on as many cores as its size warrants.
type TranslateOptions struct{}

// Translate compiles a ReductionClass over a Chapel data array into a
// FREERIDE execution. The data must be an all-real array whose elements
// reach their real run through Path with two-level addressing (the
// FREERIDE "simple 2-D array view").
func Translate(class *ReductionClass, data *chapel.Array, opt OptLevel) (*Translation, error) {
	return TranslateWith(class, data, opt, TranslateOptions{})
}

// TranslateWith is Translate with options. The class and dataset are
// verified statically before anything is linearized: any error-severity
// diagnostic from Verify rejects the translation (the returned error is a
// *verify.Error carrying the full structured list).
func TranslateWith(class *ReductionClass, data *chapel.Array, opt OptLevel, _ TranslateOptions) (*Translation, error) {
	if err := Verify(class, data, opt).Err(); err != nil {
		return nil, err
	}
	meta, err := MetaFor(data.Ty, class.Path...)
	if err != nil {
		return nil, err
	}
	promoteFlatDataMeta(meta)
	wmeta, err := meta.Words()
	if err != nil {
		return nil, err
	}
	tr := &Translation{class: class, meta: wmeta, rows: data.Len()}
	tr.cols = SizeOf(data.Ty.Elem) / 8

	// Linearize the input dataset (Ft: Dv → Ds).
	t0 := time.Now()
	tr.words, err = LinearizeToWords(data)
	if err != nil {
		return nil, err
	}
	tr.LinearizeTime = time.Since(t0)

	// Prepare hot-variable access for the level, then build the executor
	// over it.
	t0 = time.Now()
	for _, hv := range class.HotVars {
		build := NewBoxedStateVec
		if opt >= Opt2 {
			build = NewWordStateVec
		}
		sv, err := build(hv.Value, hv.Path)
		if err != nil {
			return nil, fmt.Errorf("core: hot variable: %w", err)
		}
		tr.hot = append(tr.hot, sv)
	}
	tr.HotLinearizeTime = time.Since(t0)
	tr.spec = SpecFromWords(class, tr.words, wmeta, tr.hot, opt)
	return tr, nil
}

// Words exposes the linearized dataset (word view).
func (t *Translation) Words() []float64 { return t.words }

// Meta exposes the dataset's mapping metadata (word units).
func (t *Translation) Meta() *Meta { return t.meta }

// Source returns the linearized dataset as a FREERIDE data source: one row
// per top-level element.
func (t *Translation) Source() dataset.Source {
	return NewWordSource(t.words, t.rows, t.cols)
}

// RefreshHotVars re-linearizes opt-2 hot variables after their boxed
// sources changed (no-op at other levels, whose access is live). Call
// between outer iterations, e.g. after k-means updates its centroids.
func (t *Translation) RefreshHotVars() {
	t0 := time.Now()
	for _, sv := range t.hot {
		sv.refresh()
	}
	t.HotLinearizeTime += time.Since(t0)
}

// Spec returns the FREERIDE reduction spec whose Reduction callback is the
// generated code for the translation's optimization level. It is assembled
// once, at translate time; every call returns the same closures.
func (t *Translation) Spec() freeride.Spec { return t.spec }

// SpecFromWords assembles the optimization-level-specific FREERIDE spec for
// a reduction class over an already-linearized dataset — the path used when
// several reduction phases share one linearization (e.g. PCA's mean and
// covariance phases). meta must be in word units and hot must have been
// built to match opt (NewBoxedStateVec or NewWordStateVec).
func SpecFromWords(class *ReductionClass, words []float64, meta *Meta, hot []*StateVec, opt OptLevel) freeride.Spec {
	spec := freeride.Spec{Object: class.Object, Combine: class.Combine, Finalize: class.Finalize}
	kernel := class.Kernel
	switch {
	case opt == OptNone:
		// Generated code: ComputeIndex in the innermost loop, boxed
		// hot-variable access.
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			vec := Vec{words: words, meta: meta}
			for i := 0; i < args.NumRows; i++ {
				vec.row = meta.Lo[0] + args.Begin + i
				kernel(&vec, hot, args)
			}
			return nil
		}
	case opt >= Opt3 && class.BlockKernel != nil:
		// Opt-3 fusion: hand the engine a devirtualized split-granular
		// kernel in place of the per-element one.
		view := AffinePlanFromMeta(meta, 0, len(words)).View(words)
		bk := class.BlockKernel
		spec.BlockReduction = func(args *freeride.BlockArgs) error {
			return bk(args, view, hot)
		}
	default:
		// Opt-1/Opt-2: strength reduction — "the start point for the
		// continuous data split is computed before the first iteration,
		// and an appropriate pre-computed offset is added for each
		// iteration" (§V). base is that start point and u0 the per-element
		// offset; the constants come from the shared affine access plan.
		ap := AffinePlanFromMeta(meta, 0, len(words))
		u0 := ap.U0
		off0 := ap.Off0
		run := ap.Inner * ap.U1
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			vec := Vec{}
			base := u0*args.Begin + off0
			for i := 0; i < args.NumRows; i++ {
				vec.run = words[base : base+run]
				kernel(&vec, hot, args)
				base += u0
			}
			return nil
		}
	}
	return spec
}

// WordSource adapts a linearized word buffer to dataset.Source with the
// zero-copy RowSlicer fast path. Rows views borrow the caller's backing
// array: the engine's no-retention contract applies (kernels treat the view
// as read-only and drop it before the call returns — see
// freeride.ReductionArgs.Data), and the caller must not mutate words while a
// pass is running over the source.
type WordSource struct {
	words []float64
	rows  int
	cols  int
}

// NewWordSource wraps a flat row-major word buffer as a data source. The
// shape check stays a panic: buffers produced by Translate have their word
// count proven against the dataset shape at verify time (FRV008), so this
// only trips on direct constructor misuse.
func NewWordSource(words []float64, rows, cols int) *WordSource {
	if rows*cols != len(words) {
		panic(fmt.Sprintf("core: WordSource shape %dx%d over %d words", rows, cols, len(words)))
	}
	return &WordSource{words: words, rows: rows, cols: cols}
}

// NumRows implements dataset.Source.
func (s *WordSource) NumRows() int { return s.rows }

// Cols implements dataset.Source.
func (s *WordSource) Cols() int { return s.cols }

// ReadRows implements dataset.Source.
func (s *WordSource) ReadRows(begin, end int, dst []float64) error {
	if begin < 0 || end > s.rows || begin > end {
		return fmt.Errorf("core: ReadRows range [%d,%d) out of [0,%d)", begin, end, s.rows)
	}
	if copy(dst, s.words[begin*s.cols:end*s.cols]) != (end-begin)*s.cols {
		return fmt.Errorf("core: ReadRows dst too small")
	}
	return nil
}

// Rows implements dataset.RowSlicer, aliasing the word buffer.
func (s *WordSource) Rows(begin, end int) []float64 {
	return s.words[begin*s.cols : end*s.cols]
}
