// Package chapelfreeride is the public facade of the Chapel→FREERIDE
// reproduction: a Go implementation of the system described in "Translating
// Chapel to Use FREERIDE: A Case Study in Using an HPC Language for
// Data-Intensive Computing" (Ren, Agrawal, Chamberlain, Deitz — IPDPS 2011).
//
// The library has four layers, re-exported here for downstream users:
//
//   - The Chapel runtime analog (chapel types/values, ReduceScanOp, the
//     global-view Reduce) — write reductions the way the paper's Fig. 2/3
//     writes them.
//   - The translator (core) — linearization of nested Chapel structures
//     (Algorithms 1–2), the index-mapping algorithm (Algorithm 3), and
//     FREERIDE spec generation at the paper's three optimization levels.
//   - The FREERIDE middleware (freeride + robj + sched) — the multicore
//     generalized-reduction engine with explicit reduction objects.
//   - The Map-Reduce baseline (mapreduce) and data layer (dataset).
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
	"chapelfreeride/internal/mapreduce"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
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
	// BlockArgs is the fused (opt-3) split-granular variant of ReductionArgs.
	BlockArgs = freeride.BlockArgs
	// RunResult carries the merged reduction object and stats.
	RunResult = freeride.Result
	// RunStats is the engine's timing breakdown.
	RunStats = freeride.Stats
)

// NewEngine creates a FREERIDE engine.
func NewEngine(cfg EngineConfig) *Engine { return freeride.New(cfg) }

// DefaultSplitter is the middleware-provided splitter_t.
var DefaultSplitter = freeride.DefaultSplitter

// Reduction-object strategies and operators (internal/robj).
type (
	// RObjStrategy selects the shared-memory update technique.
	RObjStrategy = robj.Strategy
	// RObjOp is the cell combine operator.
	RObjOp = robj.Op
	// RObj is the reduction object itself.
	RObj = robj.Object
)

// Reduction-object strategy constants.
const (
	FullReplication      = robj.FullReplication
	FullLocking          = robj.FullLocking
	OptimizedFullLocking = robj.OptimizedFullLocking
	FixedLocking         = robj.FixedLocking
	AtomicCAS            = robj.AtomicCAS
)

// Cell operator constants.
const (
	OpAdd = robj.OpAdd
	OpMin = robj.OpMin
	OpMax = robj.OpMax
)

// Scheduling policies (internal/sched).
type SchedulerPolicy = sched.Policy

// Scheduler policy constants.
const (
	SchedStatic       = sched.Static
	SchedDynamic      = sched.Dynamic
	SchedGuided       = sched.Guided
	SchedWorkStealing = sched.WorkStealing
)

// Chapel runtime analog (paper §II).
type (
	// ChapelType is a Chapel type descriptor.
	ChapelType = chapel.Type
	// ChapelValue is a boxed Chapel runtime value.
	ChapelValue = chapel.Value
	// ChapelArray is a boxed Chapel array.
	ChapelArray = chapel.Array
	// ChapelRecord is a boxed Chapel record.
	ChapelRecord = chapel.Record
	// ChapelInt is a boxed Chapel int.
	ChapelInt = chapel.Int
	// ChapelReal is a boxed Chapel real.
	ChapelReal = chapel.Real
	// ReduceScanOp is the Fig. 2 reduction class interface.
	ReduceScanOp = chapel.ReduceScanOp
	// ChapelExpr is an iterable reduction input (arrays, A+B, ranges).
	ChapelExpr = chapel.Expr
)

// Chapel type constructors and reduction drivers.
var (
	IntType     = chapel.IntType
	RealType    = chapel.RealType
	BoolType    = chapel.BoolType
	ArrayType   = chapel.ArrayType
	RecordType  = chapel.RecordType
	NewArray    = chapel.NewArray
	NewRecord   = chapel.NewRecord
	RealArray   = chapel.RealArray
	ChapelOver  = chapel.Over
	Reduce      = chapel.Reduce
	Scan        = chapel.Scan
	NewSumOp    = chapel.NewSumOp
	NewMinOp    = chapel.NewMinOp
	NewMaxOp    = chapel.NewMaxOp
	NewMinLocOp = chapel.NewMinLocOp
)

// Translator (paper §IV — the primary contribution).
type (
	// OptLevel selects generated / opt-1 / opt-2 code shapes.
	OptLevel = core.OptLevel
	// ReductionClass is the declarative Chapel-side reduction.
	ReductionClass = core.ReductionClass
	// HotVar declares a frequently-accessed variable (opt-2 target).
	HotVar = core.HotVar
	// Translation is the compiled, executable output.
	Translation = core.Translation
	// Vec is the kernel's view of one element's real run.
	Vec = core.Vec
	// StateVec is the kernel's view of a hot variable.
	StateVec = core.StateVec
	// LinearizeMeta is the Fig. 6 metadata for Algorithm 3.
	LinearizeMeta = core.Meta
	// LinearBuffer is linearized storage (Algorithm 2 output).
	LinearBuffer = core.Buffer
)

// Optimization levels (paper §V).
const (
	OptNone = core.OptNone
	Opt1    = core.Opt1
	Opt2    = core.Opt2
	Opt3    = core.Opt3
)

// Translator entry points.
var (
	Translate     = core.Translate
	TranslateWith = core.TranslateWith
	Linearize     = core.Linearize
	Delinearize   = core.Delinearize
	MetaFor       = core.MetaFor
	// ParseChapelDecls parses the Chapel declaration subset the paper's
	// figures use.
	ParseChapelDecls = chapel.ParseDecls
)

// Simulated cluster execution (FREERIDE's global combination phase).
type (
	// Cluster runs specs across simulated nodes with a global combine.
	Cluster = cluster.Cluster
	// ClusterConfig sets node count, per-node engine, transport, algorithm.
	ClusterConfig = cluster.Config
	// ClusterResult is the combined reduction outcome.
	ClusterResult = cluster.Result
)

// Cluster constructors and constants.
var NewCluster = cluster.New

// Cluster transport and combination-algorithm constants.
const (
	TransportInProcess = cluster.InProcess
	TransportTCP       = cluster.TCP
	CombineAllToOne    = cluster.AllToOne
	CombineTree        = cluster.Tree
)

// Data layer.
type (
	// Matrix is a dense row-major dataset.
	Matrix = dataset.Matrix
	// DataSource abstracts row access for the engine.
	DataSource = dataset.Source
)

// Data constructors and generators.
var (
	NewMatrix       = dataset.NewMatrix
	NewMemorySource = dataset.NewMemorySource
	OpenFileSource  = dataset.OpenFileSource
	WriteDataFile   = dataset.WriteFile
	ReadDataFile    = dataset.ReadFile
	GaussianMixture = dataset.GaussianMixture
	UniformMatrix   = dataset.UniformMatrix
)

// Applications (paper §V; apps package).
type (
	// AppVersion names an implementation variant (generated, opt-2, ...).
	AppVersion = apps.Version
	// KMeansConfig parameterizes k-means runs.
	KMeansConfig = apps.KMeansConfig
	// KMeansResult is a k-means run's output.
	KMeansResult = apps.KMeansResult
	// PCAConfig parameterizes PCA runs.
	PCAConfig = apps.PCAConfig
	// PCAResult is a PCA run's output.
	PCAResult = apps.PCAResult
)

// Application version constants.
const (
	VersionSeq          = apps.Seq
	VersionChapelNative = apps.ChapelNative
	VersionGenerated    = apps.Generated
	VersionOpt1         = apps.Opt1
	VersionOpt2         = apps.Opt2
	VersionOpt3         = apps.Opt3
	VersionManualFR     = apps.ManualFR
	VersionMapReduce    = apps.MapReduce
)

// Application entry points.
var (
	KMeans    = apps.KMeans
	PCA       = apps.PCA
	EM        = apps.EM
	BoxPoints = apps.BoxPoints
	BoxMatrix = apps.BoxMatrix
)

// Extension application configs and results.
type (
	// EMConfig parameterizes expectation-maximization runs.
	EMConfig = apps.EMConfig
	// EMResult is a fitted Gaussian mixture.
	EMResult = apps.EMResult
)

// NewPrefetchSource wraps a data source with the read-ahead cache.
var NewPrefetchSource = dataset.NewPrefetchSource

// MapReduceConfig configures the Phoenix-style baseline runtime.
type MapReduceConfig = mapreduce.Config

// NewMapReduce creates a Map-Reduce engine with int keys and float64
// values, the common data-mining shape; use the generic
// internal/mapreduce.New directly for other key/value types.
func NewMapReduce(cfg MapReduceConfig) *mapreduce.Engine[int, float64] {
	return mapreduce.New[int, float64](cfg)
}
