package apps

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// SpMV computes y = A·x for a sparse matrix A given as COO triples — the
// canonical inspector–executor workload. The dataset is an nnz×3 matrix
// whose rows are (row, col, value) with 0-based whole-number coordinates;
// the translated versions box the triples as Chapel records, run the
// translate-time inspector to materialize the index tables, and execute the
// table-walking kernel. The reduction object is y (one group per matrix
// row); x is the hot gather vector, boxed below opt-2 and linearized from
// opt-2 on.

// SpMVConfig parameterizes an SpMV run.
type SpMVConfig struct {
	// Rows, Cols are the logical matrix dimensions.
	Rows, Cols int
	// X is the dense input vector, len == Cols.
	X []float64
	// Engine configures the FREERIDE engine.
	Engine freeride.Config
}

func (c SpMVConfig) validate() error {
	if c.Rows < 0 || c.Cols < 0 {
		return fmt.Errorf("apps: spmv needs non-negative dimensions, got %dx%d", c.Rows, c.Cols)
	}
	if len(c.X) != c.Cols {
		return fmt.Errorf("apps: spmv input vector holds %d elements for %d columns", len(c.X), c.Cols)
	}
	return nil
}

// SpMVResult holds the output vector and timing.
type SpMVResult struct {
	Y      []float64
	Timing Timing
}

// densify expands COO triples into a dense row-major Rows×Cols matrix,
// folding duplicate coordinates under addition.
func densify(data *dataset.Matrix, rows, cols int) ([]float64, error) {
	dense := make([]float64, rows*cols)
	for i := 0; i < data.Rows; i++ {
		r, c := int(data.At(i, 0)), int(data.At(i, 1))
		if r < 0 || r >= rows || c < 0 || c >= cols {
			return nil, fmt.Errorf("apps: triple %d targets (%d,%d), outside %dx%d", i, r, c, rows, cols)
		}
		dense[r*cols+c] += data.At(i, 2)
	}
	return dense, nil
}

// SpMVSeq is the sequential densified reference: the triples are expanded
// into a dense matrix and y = A·x is computed by the textbook two-loop
// mat-vec. This is deliberately NOT a sparse traversal — it is the ground
// truth the property tests pin the sparse executors against.
func SpMVSeq(data *dataset.Matrix, cfg SpMVConfig) (*SpMVResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	dense, err := densify(data, cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	y := make([]float64, cfg.Rows)
	for r := 0; r < cfg.Rows; r++ {
		row := dense[r*cfg.Cols : (r+1)*cfg.Cols]
		var s float64
		for c, a := range row {
			s += a * cfg.X[c]
		}
		y[r] = s
	}
	return &SpMVResult{Y: y, Timing: Timing{Reduce: time.Since(t0)}}, nil
}

// SpMVManualFR is the hand-written FREERIDE version: the triples stream
// through the engine as an nnz×3 source and the reduction scatters
// v·x[col] into y[row] per entry — no inspector, coordinates re-read and
// bounds-implied per element.
func SpMVManualFR(data *dataset.Matrix, cfg SpMVConfig) (*SpMVResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	x := cfg.X
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: cfg.Rows, Elems: 1, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				args.Accumulate(int(row[0]), 0, row[2]*x[int(row[1])])
			}
			return nil
		},
	}
	t0 := time.Now()
	res, err := eng.RunContext(context.Background(), spec, dataset.NewMemorySource(data))
	if err != nil {
		return nil, err
	}
	y := make([]float64, cfg.Rows)
	copy(y, res.Object.Snapshot())
	return &SpMVResult{Y: y, Timing: Timing{Reduce: time.Since(t0)}}, nil
}

// BoxTriples boxes an nnz×3 triples matrix (0-based coordinates) as the
// Chapel [1..nnz] array of nz{r, c, v} records the sparse translation
// pipeline linearizes — coordinates shift to Chapel's 1-based domain.
func BoxTriples(data *dataset.Matrix) *chapel.Array {
	nz := chapel.RecordType("nz",
		chapel.Field{Name: "r", Type: chapel.RealType()},
		chapel.Field{Name: "c", Type: chapel.RealType()},
		chapel.Field{Name: "v", Type: chapel.RealType()})
	arr := chapel.NewArray(chapel.ArrayType(nz, 1, data.Rows))
	for i := 0; i < data.Rows; i++ {
		rec := arr.At(i + 1).(*chapel.Record)
		rec.Fields[0] = &chapel.Real{Val: data.At(i, 0) + 1}
		rec.Fields[1] = &chapel.Real{Val: data.At(i, 1) + 1}
		rec.Fields[2] = &chapel.Real{Val: data.At(i, 2)}
	}
	return arr
}

// SpMVClass is the sparse translator input for SpMV: y has one group per
// matrix row, x is the gather vector, and the kernel is the pure arithmetic
// v·g — the executor owns the table walk.
func SpMVClass(cfg SpMVConfig) *core.SparseClass {
	return &core.SparseClass{
		Name:   "spmv",
		Object: freeride.ObjectSpec{Groups: cfg.Rows, Elems: 1, Op: robj.OpAdd},
		Hot:    chapel.RealArray(cfg.X...),
		Kernel: func(v, g float64) float64 { return v * g },
	}
}

// SpMVTranslated runs SpMV through the sparse Chapel→FREERIDE translation
// at the given optimization level: box the triples, linearize to COO, run
// the inspector (whose table proofs gate execution), then execute the
// table-walking kernel.
func SpMVTranslated(data *dataset.Matrix, opt core.OptLevel, cfg SpMVConfig) (*SpMVResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	coo, err := core.LinearizeCOO(BoxTriples(data), cfg.Rows, cfg.Cols)
	if err != nil {
		return nil, err
	}
	linearize := time.Since(t0)
	tr, err := core.TranslateSparse(SpMVClass(cfg), coo, opt)
	if err != nil {
		return nil, err
	}
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	t0 = time.Now()
	res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
	if err != nil {
		return nil, err
	}
	y := make([]float64, cfg.Rows)
	copy(y, res.Object.Snapshot())
	return &SpMVResult{
		Y: y,
		Timing: Timing{
			// The inspector's table construction is the sparse analog of
			// dense linearization: translate-time, split over up to
			// GOMAXPROCS workers like it, and reported so its cost is never
			// invisible next to pass latency.
			Linearize: linearize + tr.InspectTime,
			HotVar:    tr.HotLinearizeTime,
			Reduce:    time.Since(t0),
		},
	}, nil
}
