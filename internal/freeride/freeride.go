// Package freeride reimplements the FREERIDE middleware (FRamework for
// Rapid Implementation of Datamining Engines) for multicore machines, after
// the API the paper summarizes in Table I and the processing structure of
// its §III.
//
// FREERIDE's distinguishing choices versus Map-Reduce (Fig. 4 of the paper):
// the reduction object is explicit and updated element-wise as each data
// instance is processed (map and reduce fused into a single step — no
// intermediate (key, value) pairs, no sort/group/shuffle), and the result of
// local reduction must be independent of the order in which instances are
// processed. After each pass over the data the per-thread results are
// combined locally under the chosen shared-memory technique, and a global
// combination (all-to-one, or parallel merge for large objects) produces the
// final reduction object.
//
// The Table-I functions map onto this package as follows:
//
//	reduction_t             → Spec.Reduction (func(*ReductionArgs) error)
//	combination_t           → Spec.Combine (optional; default combination used otherwise)
//	finalize_t              → Spec.Finalize (optional)
//	splitter_t              → Spec.Splitter (optional; default splitter provided)
//	reduction_object_alloc  → Spec.Object{Groups,Elems,Op} allocated by the engine
//	accumulate              → ReductionArgs.Accumulate (AccumulateRange for a run of a group)
//	get_intermediate_result → Result.Object.Get / Result.Object.Snapshot
//
// The package is organized as a persistent execution service: an Engine is a
// session owning a long-lived worker pool plus pooled schedulers and
// reduction objects (engine.go), and each RunContext call submits one job to
// that pool (job.go). This file holds the API surface shared by both: specs,
// stats, and splitters. The global combination across nodes lives in
// internal/cluster.
package freeride

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
	"chapelfreeride/internal/verify"
)

// Engine phase names as recorded in the obs layer: each pass emits one span
// per phase into the run's trace (Stats.Spans, obs.Log) and adds the phase's
// wall time to the cumulative counter freeride_phase_ns_total{phase=...}.
// Together with robj's and sched's counters they quantify the paper's three
// §V overhead sources: split handling (PhaseSplit, sched_*), reduction-object
// access (PhaseLocalCombine, robj_*), and data access (dataset_*).
// PhaseGlobalCombine names the cluster's cross-node combine span; no engine
// pass records it, so it has no phase counter.
const (
	PhaseSplit         = "split"
	PhaseReduce        = "reduce"
	PhaseLocalCombine  = "local-combine"
	PhaseCombine       = "combine"
	PhaseFinalize      = "finalize"
	PhaseGlobalCombine = "global-combine"
)

// phases lists every phase an engine pass records, one counter each.
func phases() []string {
	return []string{PhaseSplit, PhaseReduce, PhaseLocalCombine, PhaseCombine, PhaseFinalize}
}

// Always-on engine counters. Failed and cancelled passes are counted
// disjointly: a pass that returned ctx.Err() increments only the cancelled
// counter, every other error only the failed one.
var (
	mRuns          = obs.Default.Counter("freeride_runs_total", "engine passes executed")
	mRunsFailed    = obs.Default.Counter("freeride_runs_failed_total", "engine passes that returned a non-cancellation error")
	mRunsCancelled = obs.Default.Counter("freeride_runs_cancelled_total", "engine passes cancelled or timed out via context")
	// Latency histograms: end-to-end pass wall time (success and failure
	// both observed, so tail latency includes error paths), per-split
	// processing time on the workers, and the user-combination phase
	// (observed only when the spec sets Combine; the local merge is a
	// separate phase). Log-bucketed; quantiles via obs.HistState.Quantile.
	hPass    = obs.Default.Histogram("freeride_pass_duration_seconds", "end-to-end engine pass wall time")
	hSplit   = obs.Default.Histogram("freeride_split_duration_seconds", "per-split processing time (read + user reduction + flush)")
	hCombine = obs.Default.Histogram("freeride_combine_duration_seconds", "user combination phase wall time (local merge reported under PhaseLocalCombine, not here)")
	// phaseNS accumulates per-phase wall time in nanoseconds, resolved once
	// at init so the engine never does registry lookups mid-run.
	phaseNS = func() map[string]*obs.Counter {
		m := map[string]*obs.Counter{}
		for _, p := range phases() {
			m[p] = obs.Default.Counter("freeride_phase_ns_total",
				"cumulative wall time per engine phase, nanoseconds",
				obs.Label{Key: "phase", Value: p})
		}
		return m
	}()
)

// workerCounters is the per-worker counter set, cached per worker id: splits
// claimed, rows (data instances) reduced, busy and idle nanoseconds of the
// reduction phase.
type workerCounters struct {
	splits, rows, busyNS, idleNS *obs.Counter
}

var (
	workerCountersMu sync.Mutex
	workerCountersBy []workerCounters
)

// countersForWorker returns (cached) counters labeled worker="w".
func countersForWorker(w int) workerCounters {
	workerCountersMu.Lock()
	defer workerCountersMu.Unlock()
	for w >= len(workerCountersBy) {
		id := strconv.Itoa(len(workerCountersBy))
		label := obs.Label{Key: "worker", Value: id}
		workerCountersBy = append(workerCountersBy, workerCounters{
			splits: obs.Default.Counter("freeride_worker_splits_total", "splits claimed per worker", label),
			rows:   obs.Default.Counter("freeride_worker_rows_total", "data instances reduced per worker", label),
			busyNS: obs.Default.Counter("freeride_worker_busy_ns_total", "reduction-phase time spent processing splits, nanoseconds", label),
			idleNS: obs.Default.Counter("freeride_worker_idle_ns_total", "reduction-phase time spent waiting (scheduling, stragglers), nanoseconds", label),
		})
	}
	return workerCountersBy[w]
}

// Config controls the engine's parallel execution. The zero value is usable:
// it runs with GOMAXPROCS threads, full replication, dynamic scheduling, and
// a default split size.
type Config struct {
	// Threads is the number of worker goroutines ("one thread is allocated
	// on one CPU" in the paper's experiments). Defaults to GOMAXPROCS(0).
	Threads int
	// Strategy is the shared-memory technique for reduction-object updates.
	// Defaults to robj.FullReplication, FREERIDE's usual best performer.
	Strategy robj.Strategy
	// Scheduler is the split scheduling policy. Defaults to sched.Dynamic.
	Scheduler sched.Policy
	// SplitRows is the number of data instances per split handed to the
	// user reduction function. Defaults to 4096.
	SplitRows int
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.SplitRows < 1 {
		c.SplitRows = 4096
	}
	return c
}

// ReductionArgs mirrors FREERIDE's reduction_args_t: one split of the input
// dataset plus the worker's handle for updating the reduction object.
type ReductionArgs struct {
	// Data holds the split's rows, row-major; len == NumRows*Cols.
	//
	// Data is a borrowed view: for zero-copy sources (RowSlicer — memory
	// sources, mapped dataset files) it aliases the source's backing storage
	// directly. Kernels must treat it as read-only and must not retain it —
	// no storing the slice (or a sub-slice) past the call, no appending to
	// it, no writing through it. Violations corrupt shared data or fault
	// after the source unmaps; frds-vet's rowalias analyzer flags them
	// statically.
	Data []float64
	// NumRows is the number of data instances in this split.
	NumRows int
	// Cols is the number of features per instance.
	Cols int
	// Begin is the global index of the split's first row.
	Begin int

	worker  int
	object  *robj.Object
	scratch [][]float64
}

// Scratch returns per-worker scratch buffer id of length n, reused across
// calls. Kernels use distinct ids for buffers they need simultaneously
// (e.g. the data row and a hot-variable row); the contents are unspecified
// on entry.
func (a *ReductionArgs) Scratch(id, n int) []float64 {
	for id >= len(a.scratch) {
		a.scratch = append(a.scratch, nil)
	}
	if cap(a.scratch[id]) < n {
		a.scratch[id] = make([]float64, n)
	}
	return a.scratch[id][:n]
}

// Row returns instance i of the split.
func (a *ReductionArgs) Row(i int) []float64 {
	return a.Data[i*a.Cols : (i+1)*a.Cols]
}

// Accumulate updates element (group, elem) of the reduction object with v,
// mirroring FREERIDE's accumulate(int, int, void* value).
func (a *ReductionArgs) Accumulate(group, elem int, v float64) {
	a.object.Accumulate(a.worker, group, elem, v)
}

// AccumulateRange folds vals into elements elem0 … elem0+len(vals)-1 of
// group with one call: the updates of one Accumulate per value, in order
// (robj.Object.AccumulateRange). A kernel whose row updates a whole run of
// a group — a point into its cluster, a covariance row — calls it once per
// row.
func (a *ReductionArgs) AccumulateRange(group, elem0 int, vals []float64) {
	a.object.AccumulateRange(a.worker, group, elem0, vals)
}

// ObjectSpec describes the reduction object to allocate for a run,
// mirroring reduction_object_alloc: Groups × Elems cells combined with Op.
type ObjectSpec struct {
	Groups int
	Elems  int
	Op     robj.Op
}

// Spec is one reduction pass over the dataset: the user-defined functions of
// Table I plus the reduction-object shape.
type Spec struct {
	// Object describes the reduction object the engine allocates.
	Object ObjectSpec
	// Reduction is the local reduction function: it processes every
	// instance of its split and updates the reduction object through
	// args.Accumulate. Its result must be independent of instance order.
	// Required unless BlockReduction is set.
	Reduction func(args *ReductionArgs) error
	// BlockReduction is the fused split-granular alternative to Reduction:
	// it receives one whole split and a worker-local dense accumulation
	// buffer (see BlockArgs), and the engine flushes the buffer into the
	// shared object once per split via robj.AccumulateBlock. Set one of the
	// two callbacks; the engine runs BlockReduction when it is set.
	BlockReduction func(args *BlockArgs) error
	// Splitter optionally overrides the default splitter. It must partition
	// [0, totalRows) into disjoint, covering chunks. requestedUnits is the
	// engine's hint (derived from Config.SplitRows).
	Splitter func(totalRows, requestedUnits int) []sched.Chunk
	// Combine optionally post-processes the merged reduction object (the
	// paper's combination_t). When nil, the default combination — the
	// element-wise merge under the object's Op — is all that runs.
	Combine func(o *robj.Object) error
	// Finalize optionally runs once at the end (the paper's finalize_t).
	Finalize func(r *Result) error
}

// Verify statically checks the spec's structural legality — the same checks
// run() performs before any worker starts, exposed so callers (and
// cmd/freeride-translate) can report every problem at once as structured
// diagnostics instead of discovering them one error at a time.
func (s Spec) Verify() verify.Diagnostics {
	return verify.CheckSpec(verify.SpecPlan{
		HasReduction:      s.Reduction != nil,
		HasBlockReduction: s.BlockReduction != nil,
		Object:            verify.Shape{Groups: s.Object.Groups, Elems: s.Object.Elems},
	})
}

// Stats is the timing breakdown of a pass.
type Stats struct {
	// Job is the pass's job id (obs.NextJobID, process-unique). Cluster
	// passes run every node's engine pass under the coordinator's id.
	Job obs.JobID
	// JobDeltas is the pass's exact counter deltas — the job-scoped view of
	// the same increments the process-wide obs registry received, sorted by
	// key. Concurrent jobs on one session never blur into each other here.
	JobDeltas []obs.MetricDelta
	// SplitTime is time spent computing the split table.
	SplitTime time.Duration
	// ReduceTime is the wall time of the parallel local-reduction phase.
	ReduceTime time.Duration
	// LocalCombineTime covers the local-combination phase: the merge of the
	// workers' copies of the reduction object.
	LocalCombineTime time.Duration
	// CombineTime covers the user Combine phase only (0 when the spec set no
	// Combine). Local combination is reported separately under
	// LocalCombineTime; the two phases no longer blur into one number.
	CombineTime time.Duration
	// FinalizeTime covers the user Finalize.
	FinalizeTime time.Duration
	// Splits is the number of splits processed.
	Splits int
	// Threads is the worker count used.
	Threads int
	// WorkerCPU is the CPU time each worker consumed during the local
	// reduction, when the platform supports per-thread accounting (Linux);
	// empty otherwise. Unlike wall time it is unaffected by time-slicing,
	// so it supports scaling estimates on machines with fewer cores than
	// workers.
	WorkerCPU []time.Duration

	// Spans is the run's phase trace: nested spans for every phase plus one
	// span per worker in the reduction phase, ready for obs.EventLog export.
	// Existing phase fields (SplitTime, ReduceTime, ...) remain the coarse
	// view; Spans is the fine-grained one.
	Spans []obs.SpanRecord
	// WorkerSplits is the number of splits each worker claimed.
	WorkerSplits []int64
	// WorkerRows is the number of data instances each worker reduced.
	WorkerRows []int64
	// WorkerBusy is the reduction-phase wall time each worker spent
	// processing splits (reading rows + user reduction); ReduceTime minus
	// WorkerBusy[w] is worker w's idle/wait time.
	WorkerBusy []time.Duration
}

// WorkerIdle returns worker w's reduction-phase idle time: the phase's wall
// time not spent processing splits (scheduler waits, straggler imbalance).
func (s Stats) WorkerIdle(w int) time.Duration {
	if w < 0 || w >= len(s.WorkerBusy) {
		return 0
	}
	if idle := s.ReduceTime - s.WorkerBusy[w]; idle > 0 {
		return idle
	}
	return 0
}

// Total returns the sum of all phases.
func (s Stats) Total() time.Duration {
	return s.SplitTime + s.ReduceTime + s.LocalCombineTime + s.CombineTime + s.FinalizeTime
}

// CPUTotal returns the summed worker CPU time of the reduction phase, or 0
// when per-thread accounting is unavailable.
func (s Stats) CPUTotal() time.Duration {
	var sum time.Duration
	for _, d := range s.WorkerCPU {
		sum += d
	}
	return sum
}

// Result carries the final reduction object and run statistics.
type Result struct {
	// Object is the merged reduction object; Engine.Release nils it.
	Object *robj.Object
	Stats  Stats
}

// DefaultSplitter partitions [0, totalRows) into requestedUnits contiguous
// chunks of near-equal size. It is the middleware-provided splitter_t.
func DefaultSplitter(totalRows, requestedUnits int) []sched.Chunk {
	if totalRows <= 0 {
		return nil
	}
	return appendSplits(nil, totalRows, requestedUnits)
}

// appendSplits is DefaultSplitter appending into buf (reset to length 0),
// so session engines can reuse one split table across passes.
func appendSplits(buf []sched.Chunk, totalRows, requestedUnits int) []sched.Chunk {
	buf = buf[:0]
	if totalRows <= 0 {
		return buf
	}
	if requestedUnits < 1 {
		requestedUnits = 1
	}
	if requestedUnits > totalRows {
		requestedUnits = totalRows
	}
	base := totalRows / requestedUnits
	extra := totalRows % requestedUnits
	begin := 0
	for u := 0; u < requestedUnits; u++ {
		size := base
		if u < extra {
			size++
		}
		buf = append(buf, sched.Chunk{Begin: begin, End: begin + size})
		begin += size
	}
	return buf
}

// ErrNoReduction reports a Spec with neither a Reduction nor a
// BlockReduction function.
var ErrNoReduction = errors.New("freeride: Spec.Reduction (or BlockReduction) is required")

// validateSplits checks that the split table exactly tiles [0, totalRows).
func validateSplits(splits []sched.Chunk, totalRows int) error {
	covered := 0
	prevEnd := 0
	for i, sp := range splits {
		if sp.Begin != prevEnd || sp.End < sp.Begin || sp.End > totalRows {
			return fmt.Errorf("freeride: splitter produced bad split %d: %+v", i, sp)
		}
		covered += sp.Len()
		prevEnd = sp.End
	}
	if covered != totalRows {
		return fmt.Errorf("freeride: splitter covered %d of %d rows", covered, totalRows)
	}
	return nil
}
