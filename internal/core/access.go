package core

import (
	"fmt"
	"math"
	"time"

	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/verify"
)

// The translator has two addressing models, each knowing how an executor
// finds the reduction target and gather source for every element of its
// iteration domain:
//
//   - AffinePlan — the paper's closed-form dense addressing
//     off(i,k) = U0·i + Off0 + U1·k, proven safe by the verifier's
//     closed-form bounds checks (FRV010/FRV011/FRV012). Every dense app
//     uses it; SpecFromWords bakes its constants into the loop nest.
//   - InspectorPlan — the inspector–executor model for sparse/irregular
//     sources: a translate-time inspector materializes CSR tables (row
//     pointers for the scatter target, a gather offset per nonzero), and
//     the verifier proves them total and in bounds (FRV013/FRV014)
//     because no closed form exists.
//
// The split mirrors the inspector–executor compilation of irregular PGAS
// accesses: pay an analysis pass once at translate time so the per-pass
// executor runs without bounds checks or mapping arithmetic.

// AffinePlan is the closed-form dense addressing model: element i's real
// run starts at U0*i + Off0 and holds Inner elements with stride U1. The
// constants come straight from the Fig. 6 mapping metadata, in words.
type AffinePlan struct {
	// U0 is the outer (row) stride; Off0 the hoisted base offset; U1 the
	// inner stride.
	U0, Off0, U1 int
	// Inner is the run length in elements.
	Inner int
	// NumRows is the outer domain length; WordLen the linearized buffer
	// length. SpecFromWords leaves NumRows zero: its executors take the
	// domain from each split's arguments.
	NumRows, WordLen int
}

// AffinePlanFromMeta extracts the affine constants the strength-reduced
// loop nest uses from mapping metadata — the single definition SpecFromWords
// and the verifier lowering share. rows and wordLen size the
// plan's domain and buffer for verification; pass zero when unknown.
func AffinePlanFromMeta(meta *Meta, rows, wordLen int) AffinePlan {
	return AffinePlan{
		U0:      meta.UnitSize[0],
		Off0:    meta.UnitOffset[0][meta.Position[0][0]] + meta.LeafOffset,
		U1:      meta.Stride(),
		Inner:   meta.InnerLen,
		NumRows: rows,
		WordLen: wordLen,
	}
}

// Kind names the addressing model.
func (a AffinePlan) Kind() string { return "affine" }

// access lowers the plan into the verifier's closed-form Access form.
func (a AffinePlan) access(name string) verify.Access {
	return verify.Access{
		Name:     name,
		Elems:    a.NumRows,
		InnerLen: a.Inner,
		U0:       a.U0,
		Off0:     a.Off0,
		U1:       a.U1,
		WordLen:  a.WordLen,
		Levels:   2,
		AllReal:  true,
	}
}

// Verify appends the plan's proof obligation to a verifier plan: the
// closed-form data access map.
func (a AffinePlan) Verify(p *verify.Plan) {
	acc := a.access("data")
	p.Data = &acc
}

// View binds the plan to a linearized word buffer as the opt-3 block view.
func (a AffinePlan) View(words []float64) BlockView {
	return BlockView{Words: words, RowStride: a.U0, RunOff: a.Off0, RunLen: a.Inner * a.U1}
}

// Inspector-cost counters (the translate-time analog of the engine's
// per-phase counters): how long inspectors spend building index tables and
// how much table memory they materialize. Surfaced in the bench JSON report
// next to pass latency so inspector overhead is never invisible.
var (
	mInspectorBuildNS = obs.Default.Counter("freeride_inspector_build_ns",
		"translate-time inspector index-table construction, nanoseconds")
	mIndexTableBytes = obs.Default.Counter("freeride_index_table_bytes",
		"bytes of inspector-materialized index tables")
)

// InspectorPlan is the table-driven addressing model for sparse sources:
// the inspector sorts a COO source into CSR order once at translate time
// and materializes the compressed sparse row tables
//
//	rowPtr[r] — the first entry of row r (rows+1 pointers; row r holds the
//	            entries [rowPtr[r], rowPtr[r+1]) and its cell is r)
//	in[e]     — entry e's gather offset into the hot vector (column index)
//
// plus the CSR-ordered values the engine streams as an nnz×1 source. The
// executor walks the tables with no mapping arithmetic; safety comes from
// the verifier's table proofs (row pointers total over the entries, every
// column in [0,Cols)), not from per-element checks.
//
// The tables are int32: a plan holds at most MaxInt32 entries (so
// rowPtr[rows] = nnz fits) of a matrix at most MaxInt32 × MaxInt32.
// rowPtr costs 4·(Rows+1) bytes whatever the nonzero count, as the
// reduction object costs 8 B per row, so a tall matrix pays O(Rows) even
// when it is nearly empty.
type InspectorPlan struct {
	rows, cols int // logical sparse-matrix shape
	nnz        int

	vals   []float64
	rowPtr []int32
	in     []int32

	buildTime  time.Duration
	tableBytes int
}

// NewInspectorPlan runs the inspector over a COO source: sorts the entries
// into CSR order (row-major, column within row) and materializes the
// executor's tables. The sort is stable — entries with equal (row, col)
// keep their input order, so results are reproducible across runs — and
// linear: a counting sort on the row, O(nnz + Rows) time, then a column
// sort of each row through a scratch the size of the longest row. Both run
// on inspectorWorkers goroutines, and the tables do not depend on the
// count.
//
// A shape no int32 table can address — Rows or Cols outside [0, MaxInt32],
// or more than MaxInt32 entries — is rejected with FRV007 before anything
// is allocated. An entry whose row is outside [0, Rows) has no place in the
// row pointers and is rejected with FRV013 while the rows are counted,
// before any other table is built. Columns are NOT checked here; the
// verifier's table proof (FRV013) rejects them when the plan is bound to a
// class, which keeps that proof in one place.
func NewInspectorPlan(coo *SparseCOO) (*InspectorPlan, error) {
	if coo == nil {
		return nil, fmt.Errorf("core: inspector needs a COO source")
	}
	return newInspectorPlan(coo, inspectorWorkers(len(coo.V), coo.Rows))
}

// inspectorWorkers is the inspector's worker count over nnz entries of a
// matrix with rows rows: stageWorkers(nnz), lowered while the extra
// workers' histograms, (W−1)·rows counters, would outnumber the entries.
func inspectorWorkers(nnz, rows int) int {
	w := stageWorkers(nnz)
	if rows > 0 {
		w = min(w, nnz/rows+1)
	}
	return w
}

// newInspectorPlan is NewInspectorPlan with the counting sort on workers
// goroutines (at least one); the plan is the same whatever the count.
func newInspectorPlan(coo *SparseCOO, workers int) (*InspectorPlan, error) {
	nnz := len(coo.V)
	if len(coo.R) != nnz || len(coo.C) != nnz {
		return nil, fmt.Errorf("core: COO arrays disagree: %d rows, %d cols, %d values",
			len(coo.R), len(coo.C), nnz)
	}
	if err := CheckSparseShape(coo.Rows, coo.Cols, nnz); err != nil {
		return nil, err
	}
	t0 := time.Now()
	p := &InspectorPlan{rows: coo.Rows, cols: coo.Cols, nnz: nnz}
	if err := p.sortCSR(coo, workers); err != nil {
		return nil, err
	}
	p.buildTime = time.Since(t0)
	p.tableBytes = 4 * (len(p.rowPtr) + len(p.in))
	mInspectorBuildNS.Add(p.buildTime.Nanoseconds())
	mIndexTableBytes.Add(int64(p.tableBytes))
	return p, nil
}

// CheckSparseShape rejects a sparse matrix the inspector's int32 tables
// cannot address — rows or cols outside [0, MaxInt32], or more than
// MaxInt32 nonzeros — with a *verify.Error carrying FRV007. Pass nnz = 0
// when only the shape is known.
func CheckSparseShape(rows, cols, nnz int) error {
	if rows < 0 || rows > math.MaxInt32 || cols < 0 || cols > math.MaxInt32 {
		return verify.Diagnostics{{
			Pos: "coo", Severity: verify.SeverityError, Code: verify.CodeBadObjectShape,
			Msg: fmt.Sprintf("core: sparse matrix shape %dx%d is outside [0, %d]; int32 index tables cannot address it",
				rows, cols, math.MaxInt32),
		}}.Err()
	}
	if nnz < 0 || nnz > math.MaxInt32 {
		return verify.Diagnostics{{
			Pos: "coo", Severity: verify.SeverityError, Code: verify.CodeBadObjectShape,
			Msg: fmt.Sprintf("core: %d nonzeros is outside [0, %d]; int32 row pointers cannot count them",
				nnz, math.MaxInt32),
		}}.Err()
	}
	return nil
}

// insertionRowMax is the longest row the column pass insertion-sorts.
// Longer rows — hub rows, or a source given as one row — take the radix
// column pass, so a skewed source still sorts in linear time.
const insertionRowMax = 32

// sortCSR builds the tables from coo with the stable COO → CSR counting
// sort, run on workers goroutines that each own a contiguous range of
// entries — the counting pass of Arkouda's radix sort with strided counts:
//
//  1. each worker counts the rows of its range into its own histogram;
//     worker 0's histogram is rowPtr itself;
//  2. one exclusive prefix sum over (row, worker), row-major, turns the
//     histograms into cursors: worker w's entries of row r land after
//     those of workers 0..w−1, so a row keeps the input order;
//  3. each worker scatters its range's columns and values through its
//     cursors;
//  4. the last worker's cursors now end each row: shifted up one row they
//     are the row pointers;
//  5. the columns of each row are ordered, the rows split over the workers.
//
// An entry whose row has no pointer stops its worker's count; ranges
// ascend with the worker, so the first worker's bad entry is the lowest.
func (p *InspectorPlan) sortCSR(coo *SparseCOO, workers int) error {
	R := coo.R
	C, V := coo.C[:len(R)], coo.V[:len(R)]
	nnz, rows := len(R), p.rows
	rowPtr := make([]int32, rows+1)
	cursors := make([][]int32, workers)
	cursors[0] = rowPtr[:rows]
	if workers > 1 {
		more := make([]int32, (workers-1)*rows)
		for w := 1; w < workers; w++ {
			cursors[w] = more[(w-1)*rows : w*rows]
		}
	}
	bad := make([]int, workers)
	forRanges(nnz, workers, func(w, lo, hi int) {
		counts := cursors[w]
		bad[w] = -1
		for e, r := range R[lo:hi] {
			if r < 0 || int(r) >= rows {
				bad[w] = lo + e
				return
			}
			counts[r]++
		}
	})
	for _, e := range bad {
		if e >= 0 {
			return verify.Diagnostics{{
				Pos: "coo", Severity: verify.SeverityError, Code: verify.CodeTableOOB,
				Msg: fmt.Sprintf("core: COO entry %d has row %d, outside the matrix's rows [0,%d); no row pointer can place it",
					e, R[e], rows),
			}}.Err()
		}
	}
	var start, widest int32
	for r := 0; r < rows; r++ {
		first := start
		for _, cur := range cursors {
			n := cur[r]
			cur[r] = start
			start += n
		}
		widest = max(widest, start-first)
	}
	in, vals := make([]int32, nnz), make([]float64, nnz)
	forRanges(nnz, workers, func(w, lo, hi int) {
		cur := cursors[w]
		for e := lo; e < hi; e++ {
			i := cur[R[e]]
			cur[R[e]]++
			in[i], vals[i] = C[e], V[e]
		}
	})
	copy(rowPtr[1:], cursors[workers-1])
	rowPtr[0] = 0
	p.rowPtr, p.in, p.vals = rowPtr, in, vals

	forRanges(rows, workers, func(_, r0, r1 int) {
		var s csrScratch
		if widest > insertionRowMax {
			s = csrScratch{in: make([]int32, widest), vals: make([]float64, widest)}
		}
		for r := r0; r < r1; r++ {
			if lo, hi := rowPtr[r], rowPtr[r+1]; hi-lo > 1 {
				s.sortRow(in[lo:hi], vals[lo:hi])
			}
		}
	})
	return nil
}

// csrScratch is the radix column pass's ping-pong copy of one row.
type csrScratch struct {
	in   []int32
	vals []float64
}

// sortRow stably orders one row's entries by column. Rows hold a few
// entries in practice and are insertion-sorted; a longer row takes an LSD
// radix over the column's four bytes, ping-ponging through the scratch.
func (s *csrScratch) sortRow(in []int32, vals []float64) {
	n := len(in)
	if n <= insertionRowMax {
		for i := 1; i < n; i++ {
			c, v := in[i], vals[i]
			j := i
			for ; j > 0 && in[j-1] > c; j-- {
				in[j], vals[j] = in[j-1], vals[j-1]
			}
			in[j], vals[j] = c, v
		}
		return
	}
	src, srcV, dst, dstV := in, vals, s.in[:n], s.vals[:n]
	for shift := 0; shift < 32; shift += 8 {
		var next [257]int
		for _, c := range src {
			next[colDigit(c, shift)+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for e, c := range src {
			d := colDigit(c, shift)
			dst[next[d]], dstV[next[d]] = c, srcV[e]
			next[d]++
		}
		src, srcV, dst, dstV = dst, dstV, src, srcV
	}
	// Four passes, an even number: the sorted row is back in in and vals.
}

// colDigit is byte shift/8 of column c with the sign bit flipped, so the
// unsigned digit order is the signed column order.
func colDigit(c int32, shift int) int {
	return int(uint32(c)^(1<<31)) >> shift & 0xff
}

// Kind names the addressing model.
func (p *InspectorPlan) Kind() string { return "inspector" }

// Verify appends the plan's proof obligations to a verifier plan: the
// materialized tables themselves, bounded by the logical matrix shape.
// Callers that bind the plan to a class additionally check the object and
// hot-vector shapes match that logical shape (VerifySparse), so in-bounds
// here means in bounds for the executor.
func (p *InspectorPlan) Verify(vp *verify.Plan) {
	vp.Tables = append(vp.Tables,
		verify.TableAccess{Name: "rowPtr", Domain: p.nnz, Entries: p.rowPtr, Bound: p.rows},
		verify.TableAccess{Name: "in", Domain: p.nnz, Entries: p.in, Bound: p.cols},
	)
}

// Rows and Cols report the logical sparse-matrix shape.
func (p *InspectorPlan) Rows() int { return p.rows }

// Cols reports the logical column count (gather-vector length).
func (p *InspectorPlan) Cols() int { return p.cols }

// BuildTime reports how long the inspector spent sorting and materializing
// tables — the O(nnz + Rows) translate-time cost the bench report
// surfaces.
func (p *InspectorPlan) BuildTime() time.Duration { return p.buildTime }

// TableBytes reports the index tables' memory footprint: 4·nnz for the
// columns plus 4·(Rows+1) for the row pointers.
func (p *InspectorPlan) TableBytes() int { return p.tableBytes }
