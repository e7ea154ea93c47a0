// Package chapelfreeride is the public facade of the Chapel→FREERIDE
// reproduction: a Go implementation of the system described in "Translating
// Chapel to Use FREERIDE: A Case Study in Using an HPC Language for
// Data-Intensive Computing" (Ren, Agrawal, Chamberlain, Deitz — IPDPS 2011).
//
// The facade re-exports what the package's examples use, one layer each:
//
//   - The Chapel runtime analog (chapel values and the global-view Reduce)
//     — write reductions the way the paper's Fig. 2/3 writes them.
//   - The translator (core) — linearization of nested Chapel structures
//     (Algorithms 1–2), the index-mapping algorithm (Algorithm 3), and
//     FREERIDE spec generation at the paper's optimization levels.
//   - The FREERIDE middleware (freeride + robj) — the multicore
//     generalized-reduction engine with explicit reduction objects — and
//     its simulated cluster.
//
// Everything else lives in the internal packages.
//
// An Engine is a session: its worker pool and object/scheduler pools
// persist across passes (hand finished results back with Release to recycle
// their reduction objects) until Close tears it down. RunContext is its one
// entry point; the context cancels the pass.
//
// Quick start (ExampleNewEngine is the runnable version):
//
//	eng := chapelfreeride.NewEngine(chapelfreeride.EngineConfig{Threads: 4})
//	defer eng.Close()
//	spec := chapelfreeride.Spec{
//	    Object: chapelfreeride.ObjectSpec{Groups: 1, Elems: 1, Op: chapelfreeride.OpAdd},
//	    Reduction: func(args *chapelfreeride.ReductionArgs) error {
//	        var s float64
//	        for _, v := range args.Data { s += v }
//	        args.Accumulate(0, 0, s)
//	        return nil
//	    },
//	}
//	res, err := eng.RunContext(context.Background(), spec, chapelfreeride.NewMemorySource(matrix))
//	// ... read res.Object, then hand it back for the next pass to reuse:
//	eng.Release(res)
package chapelfreeride

import (
	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// FREERIDE middleware (paper §III, Table I).
type (
	// Engine executes generalized reductions over data sources.
	Engine = freeride.Engine
	// EngineConfig controls threads, sharing strategy, scheduling, split size.
	EngineConfig = freeride.Config
	// Spec is one reduction pass: the Table-I user functions.
	Spec = freeride.Spec
	// ObjectSpec is the reduction-object shape for reduction_object_alloc.
	ObjectSpec = freeride.ObjectSpec
	// ReductionArgs is reduction_args_t: one split plus the accumulate handle.
	ReductionArgs = freeride.ReductionArgs
)

// NewEngine creates a FREERIDE engine.
func NewEngine(cfg EngineConfig) *Engine { return freeride.New(cfg) }

// OpAdd is the summing cell operator.
const OpAdd = robj.OpAdd

// Chapel runtime analog (paper §II).
type (
	// ChapelArray is a boxed Chapel array.
	ChapelArray = chapel.Array
	// ChapelReal is a boxed Chapel real.
	ChapelReal = chapel.Real
)

// Chapel values and the global-view reduction driver.
var (
	RealArray  = chapel.RealArray
	ChapelOver = chapel.Over
	Reduce     = chapel.Reduce
	NewSumOp   = chapel.NewSumOp
)

// Opt2 is the paper's fully optimized translation level (§V).
const Opt2 = core.Opt2

// Translator entry points (paper §IV — the primary contribution).
var (
	Translate   = core.Translate
	Linearize   = core.Linearize
	Delinearize = core.Delinearize
	MetaFor     = core.MetaFor
	BoxPoints   = apps.BoxPoints
)

// ClusterConfig sets node count, per-node engine, transport, algorithm.
type ClusterConfig = cluster.Config

// NewCluster builds a simulated cluster: the spec runs on every node and
// the reduction objects meet in FREERIDE's global combination phase.
var NewCluster = cluster.New

// Cluster transport and combination-algorithm constants.
const (
	TransportInProcess = cluster.InProcess
	CombineTree        = cluster.Tree
)

// Data layer.
var (
	NewMatrix       = dataset.NewMatrix
	NewMemorySource = dataset.NewMemorySource
)
