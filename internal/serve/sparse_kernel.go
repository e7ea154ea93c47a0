package serve

import (
	"context"
	"fmt"
	"runtime"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// SpMVOutput is the spmv kernel's result payload.
type SpMVOutput struct {
	// Y is the output vector, one element per matrix row.
	Y []float64 `json:"y"`
	// Rows, Cols are the logical matrix dimensions the job resolved.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// NNZ is the nonzero (triple) count consumed.
	NNZ int `json:"nnz"`
	// InspectorNs is the translate-time inspector cost for this job — the
	// COO→CSR counting sort, O(nnz + Rows), plus index-table
	// materialization, reported so serving latency never hides table
	// construction inside pass time.
	InspectorNs int64 `json:"inspector_ns"`
	// IndexTableBytes is the size of the materialized CSR tables: the row
	// pointers and the per-entry column indices.
	IndexTableBytes int `json:"index_table_bytes"`
	// Iterations echoes the pass count performed (each pass re-walks the
	// tables; the inspector runs once, at translate time).
	Iterations int `json:"iterations"`
}

// spmvKernel serves y = A·x over a sparse dataset (kind "sparse": nnz×3
// (row, col, value) triples). The resident triples are read zero-copy when
// the source is a dataset.RowSlicer (a memory recipe, a row-major mapped
// file) and turned straight into the inspector's COO by core.COOFromTriples:
// no Chapel records are boxed per request (boxing stays the paper's path, in
// apps.SpMVTranslated). The COO runs through the sparse translation at
// opt-3 — the inspector executes once per job, its index tables proven
// in-bounds and total by the verifier, and every pass is the fused
// table-walking executor. The input vector is deterministic in the logical
// shape (x[j] = j%7 + 1, integer-valued so the result is a pure function of
// the recipe), matching the server's recipe-not-data contract for datasets.
// A shape whose x and y together would take more than maxVecBytes (the
// server's dataset cache bound) fails the job before either is allocated.
func spmvKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params, maxVecBytes int64) (any, error) {
	p = p.withDefaults()
	if src.Cols() != 3 {
		return nil, fmt.Errorf("serve: spmv needs an nnz x 3 triples dataset (kind sparse), got %d columns", src.Cols())
	}
	nnz := src.NumRows()
	if nnz < 1 {
		return nil, fmt.Errorf("serve: spmv over an empty triples dataset")
	}
	// words aliases the resident dataset when it can: read it, never
	// write it. A mapped file's finalizer unmaps it once src is
	// unreachable, and words does not keep src alive, so src is held
	// until the COO has copied what it needs.
	var buf []float64
	words, err := dataset.NewReader(src).Read(ctx, 0, nnz, &buf)
	if err != nil {
		return nil, err
	}

	// Logical shape: explicit params win; each omitted dimension is the
	// tightest the triples fit (max coordinate + 1), so a bare submission
	// still runs. An explicit dimension is never raised: triples past it
	// fail the job (FRV013) instead of being served under another shape.
	rows, cols := p.Rows, p.Cols
	if inferRows, inferCols := rows == 0, cols == 0; inferRows || inferCols {
		for i := 0; i < len(words); i += 3 {
			if r := int(words[i]) + 1; inferRows && r > rows {
				rows = r
			}
			if c := int(words[i+1]) + 1; inferCols && c > cols {
				cols = c
			}
		}
	}
	if err := core.CheckSparseShape(rows, cols, nnz); err != nil {
		return nil, err
	}
	if vec := 8 * (int64(rows) + int64(cols)); vec > maxVecBytes {
		return nil, fmt.Errorf("serve: spmv shape %dx%d needs %d bytes of x and y vectors, over the server's %d-byte cache bound",
			rows, cols, vec, maxVecBytes)
	}

	coo, err := core.COOFromTriples(words, rows, cols)
	runtime.KeepAlive(src)
	if err != nil {
		return nil, err
	}

	x := make([]float64, cols)
	for j := range x {
		x[j] = float64(j%7 + 1)
	}
	cfg := apps.SpMVConfig{Rows: rows, Cols: cols, X: x}
	tr, err := core.TranslateSparse(apps.SpMVClass(cfg), coo, core.Opt3)
	if err != nil {
		return nil, err
	}

	y := make([]float64, rows)
	for it := 0; it < p.Iterations; it++ {
		res, err := eng.RunContext(ctx, tr.Spec(), tr.Source())
		if err != nil {
			return nil, err
		}
		copy(y, res.Object.Snapshot())
		if err := eng.Release(res); err != nil {
			return nil, err
		}
	}
	return &SpMVOutput{
		Y: y, Rows: rows, Cols: cols, NNZ: nnz,
		InspectorNs:     (tr.InspectTime + tr.HotLinearizeTime).Nanoseconds(),
		IndexTableBytes: tr.Plan().TableBytes(),
		Iterations:      p.Iterations,
	}, nil
}
