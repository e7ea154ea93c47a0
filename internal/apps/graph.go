package apps

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// DegreeHistogram counts each node's out-degree from an edge list — the
// gather-free sparse push reduction (PageRank's structural skeleton: one
// scatter per edge into a node-indexed vector, here with contribution 1
// instead of rank/degree). The dataset is an edges×2 matrix whose rows are
// (src, dst) with 0-based whole-number node ids; the adjacency matrix view
// is a Nodes×Nodes sparse matrix with a 1 at (src, dst), and the degree
// vector is its row-sum — SpMV's shape with no x to gather, which is why
// the translated versions reuse the sparse pipeline with a nil hot vector.

// DegreeConfig parameterizes a degree-histogram run.
type DegreeConfig struct {
	// Nodes is the node-id space; every edge endpoint must be in [0, Nodes).
	Nodes int
	// Engine configures the FREERIDE engine.
	Engine freeride.Config
}

func (c DegreeConfig) validate() error {
	if c.Nodes < 0 {
		return fmt.Errorf("apps: degree histogram needs Nodes >= 0, got %d", c.Nodes)
	}
	return nil
}

// DegreeResult holds the per-node out-degrees and timing.
type DegreeResult struct {
	Degrees []float64
	Timing  Timing
}

// edgeTriples rewrites an edges×2 edge list as the nnz×3 triples matrix the
// sparse pipeline consumes: (src, dst, 1).
func edgeTriples(edges *dataset.Matrix) *dataset.Matrix {
	t := dataset.NewMatrix(edges.Rows, 3)
	for i := 0; i < edges.Rows; i++ {
		t.Data[3*i] = edges.At(i, 0)
		t.Data[3*i+1] = edges.At(i, 1)
		t.Data[3*i+2] = 1
	}
	return t
}

// DegreeSeq is the sequential densified reference: the edge list is
// expanded into a dense adjacency matrix and the degrees are its row-sums.
func DegreeSeq(edges *dataset.Matrix, cfg DegreeConfig) (*DegreeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	dense, err := densify(edgeTriples(edges), cfg.Nodes, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	deg := make([]float64, cfg.Nodes)
	for n := 0; n < cfg.Nodes; n++ {
		var s float64
		for _, a := range dense[n*cfg.Nodes : (n+1)*cfg.Nodes] {
			s += a
		}
		deg[n] = s
	}
	return &DegreeResult{Degrees: deg, Timing: Timing{Reduce: time.Since(t0)}}, nil
}

// DegreeClass is the sparse translator input: a gather-free class (no hot
// vector), whose kernel passes the stored value (1 per edge) through.
func DegreeClass(cfg DegreeConfig) *core.SparseClass {
	return &core.SparseClass{
		Name:   "degree_histogram",
		Object: freeride.ObjectSpec{Groups: cfg.Nodes, Elems: 1, Op: robj.OpAdd},
		Kernel: func(v, _ float64) float64 { return v },
	}
}

// DegreeTranslated runs the degree histogram through the sparse translation
// at the given optimization level.
func DegreeTranslated(edges *dataset.Matrix, opt core.OptLevel, cfg DegreeConfig) (*DegreeResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	coo, err := core.LinearizeCOO(BoxTriples(edgeTriples(edges)), cfg.Nodes, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	linearize := time.Since(t0)
	tr, err := core.TranslateSparse(DegreeClass(cfg), coo, opt)
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
	deg := make([]float64, cfg.Nodes)
	copy(deg, res.Object.Snapshot())
	return &DegreeResult{
		Degrees: deg,
		Timing:  Timing{Linearize: linearize + tr.InspectTime, Reduce: time.Since(t0)},
	}, nil
}
