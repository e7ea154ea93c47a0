package serve

import (
	"context"
	"fmt"

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
	// COO→CSR counting sort, O(nnz + Rows/1024), plus index-table
	// materialization, reported so serving latency never hides table
	// construction inside pass time.
	InspectorNs int64 `json:"inspector_ns"`
	// IndexTableBytes is the size of the materialized out+in index tables.
	IndexTableBytes int `json:"index_table_bytes"`
	// Iterations echoes the pass count performed (each pass re-walks the
	// tables; the inspector runs once, at translate time).
	Iterations int `json:"iterations"`
}

// spmvKernel serves y = A·x over a sparse dataset (kind "sparse": nnz×3
// (row, col, value) triples). The triples are boxed, linearized to COO, and
// run through the sparse translation at opt-3 — the inspector executes once
// per job, its index tables proven in-bounds and total by the verifier, and
// every pass is the fused table-walking executor. The input vector is
// deterministic in the logical shape (x[j] = j%7 + 1, integer-valued so the
// result is a pure function of the recipe), matching the server's
// recipe-not-data contract for datasets.
func spmvKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
	p = p.withDefaults()
	if src.Cols() != 3 {
		return nil, fmt.Errorf("serve: spmv needs an nnz x 3 triples dataset (kind sparse), got %d columns", src.Cols())
	}
	nnz := src.NumRows()
	if nnz < 1 {
		return nil, fmt.Errorf("serve: spmv over an empty triples dataset")
	}
	triples := dataset.NewMatrix(nnz, 3)
	if err := dataset.ReadRowsContext(ctx, src, 0, nnz, triples.Data); err != nil {
		return nil, err
	}

	// Logical shape: explicit params win; otherwise the tightest shape the
	// triples fit (max coordinate + 1), so a bare submission still runs.
	rows, cols := p.Rows, p.Cols
	if rows == 0 || cols == 0 {
		for i := 0; i < nnz; i++ {
			if r := int(triples.At(i, 0)) + 1; r > rows {
				rows = r
			}
			if c := int(triples.At(i, 1)) + 1; c > cols {
				cols = c
			}
		}
		if err := core.CheckSparseShape(rows, cols); err != nil {
			return nil, err
		}
	}

	x := make([]float64, cols)
	for j := range x {
		x[j] = float64(j%7 + 1)
	}
	cfg := apps.SpMVConfig{Rows: rows, Cols: cols, X: x}

	coo, err := core.LinearizeCOO(apps.BoxTriples(triples), rows, cols)
	if err != nil {
		return nil, err
	}
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
