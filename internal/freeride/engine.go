package freeride

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"chapelfreeride/internal/cputime"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// Session counters: pool workers spun up, jobs submitted to sessions, and
// per-pass reuse of pooled schedulers. Together with robj_pool_* and
// sched_resets_total they quantify how much per-pass setup the session
// architecture amortizes away.
var (
	mPoolWorkers = obs.Default.Counter("freeride_pool_workers_total",
		"persistent worker goroutines started by engine sessions")
	mJobs = obs.Default.Counter("freeride_jobs_total",
		"jobs submitted to engine worker pools")
	mSchedReused = obs.Default.Counter("freeride_sched_reuses_total",
		"pooled schedulers re-armed for a pass instead of allocated")
	jobsInflight atomic.Int64
)

func init() {
	obs.Default.GaugeFunc("freeride_jobs_inflight",
		"jobs currently executing on engine worker pools",
		func() float64 { return float64(jobsInflight.Load()) })
}

// ErrEngineClosed reports a RunContext or Start on an engine whose session
// has been closed.
var ErrEngineClosed = errors.New("freeride: engine is closed")

// ticket is one unit of pool work: worker slot `slot` of job `j`. A job
// enqueues exactly Threads tickets, so every scheduler slot is served even
// when one pool worker ends up processing several slots back to back.
type ticket struct {
	j    *job
	slot int
}

// workerState is one pool worker's persistent state, created when the
// session starts and reused by every job the worker serves: the split read
// buffer and the worker's split handle. The handle's kernel scratch slots
// and fused-path accumulation buffer (BlockArgs.Acc, sized to the largest
// reduction object the worker has served) keep their capacity across
// passes, so steady-state passes allocate nothing per split or per slot.
// Its borrowed Data and object are cleared when each slot ends.
type workerState struct {
	buf  []float64
	args BlockArgs
}

// Engine executes reduction Specs over data Sources. It is a session: the
// first RunContext (or an explicit Start) spins up a persistent pool of
// Config.Threads workers, and every RunContext, from any goroutine, submits
// a job to that pool — multiple independent jobs may be in flight
// concurrently. Schedulers, split tables, and reduction objects are pooled
// per engine and reused across passes, so steady-state iterative workloads
// pay no per-pass setup. Close drains in-flight jobs and releases the pool;
// a closed engine rejects further passes.
type Engine struct {
	cfg Config

	mu      sync.Mutex // guards started/closed transitions
	started bool
	closed  bool

	// submitMu serializes job enqueueing against Close: submitters hold the
	// read side while sending tickets, Close takes the write side before
	// closing the ticket channel, so a send never races the close.
	submitMu sync.RWMutex
	tickets  chan ticket
	workers  sync.WaitGroup

	// objects pools finished reduction objects (Release) for reuse by later
	// Runs with the same shape.
	objects *robj.Pool

	// scheds and splitBufs pool per-pass scheduler and split-table
	// allocations. Entries are only returned after their job fully drained,
	// never from abandoned (cancelled-with-straggler) passes.
	schedMu   sync.Mutex
	scheds    []sched.Scheduler
	splitMu   sync.Mutex
	splitBufs [][]sched.Chunk
}

// New creates an engine session with the given configuration. The worker
// pool starts lazily on the first RunContext; call Start to front-load it.
func New(cfg Config) *Engine {
	return &Engine{cfg: cfg.withDefaults(), objects: robj.NewPool()}
}

// Config returns the engine's effective configuration.
func (e *Engine) Config() Config { return e.cfg }

// Start spins up the session's persistent worker pool. It is idempotent;
// RunContext calls it implicitly. Start after Close returns ErrEngineClosed.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.startLocked()
}

func (e *Engine) startLocked() error {
	if e.closed {
		return ErrEngineClosed
	}
	if e.started {
		return nil
	}
	depth := 4 * e.cfg.Threads
	if depth < 16 {
		depth = 16
	}
	e.tickets = make(chan ticket, depth)
	measure := cputime.Supported()
	for p := 0; p < e.cfg.Threads; p++ {
		e.workers.Add(1)
		go e.worker(p, measure)
	}
	e.started = true
	return nil
}

// Close ends the session: it stops accepting jobs, drains the ones already
// submitted, and waits for the pool workers to exit. Close is idempotent and
// safe to call on an engine that never started.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	started := e.started
	e.mu.Unlock()
	if !started {
		return nil
	}
	// Exclude in-flight submitters, then close the ticket channel so the
	// workers drain what was accepted and exit.
	e.submitMu.Lock()
	close(e.tickets)
	e.submitMu.Unlock()
	e.workers.Wait()
	return nil
}

func (e *Engine) isClosed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// worker is one persistent pool goroutine: it pins pprof labels (and, when
// per-thread CPU accounting is available, its OS thread) once, then serves
// job tickets until the session closes. Read buffers and kernel scratch live
// here, reused across every pass the worker serves.
func (e *Engine) worker(p int, measureCPU bool) {
	defer e.workers.Done()
	mPoolWorkers.Inc()
	ws := &workerState{}
	// Label the worker goroutine so CPU/heap profiles taken from the
	// metrics endpoint attribute samples per worker.
	pprof.Do(context.Background(),
		pprof.Labels("subsystem", "freeride", "worker", strconv.Itoa(p)),
		func(context.Context) {
			if measureCPU {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			for t := range e.tickets {
				t.j.runSlot(t.slot, ws)
			}
		})
}

// Release returns a finished Result's reduction object to the engine's
// session pool so the next pass with the same object shape reuses it instead
// of allocating. After Release the caller must not touch the object or any
// slice obtained from its Snapshot; res.Object is nilled to make accidental
// reuse fail fast. Releasing a nil result (or one already released) is a
// no-op, so callers can release unconditionally.
func (e *Engine) Release(res *Result) error {
	if res == nil || res.Object == nil {
		return nil
	}
	o := res.Object
	if o.Strategy() != e.cfg.Strategy || o.Workers() != e.cfg.Threads {
		return fmt.Errorf("freeride: Release of object built for %v/%d workers on a %v/%d engine: pooled objects are session-scoped — release each result to the engine that produced it",
			o.Strategy(), o.Workers(), e.cfg.Strategy, e.cfg.Threads)
	}
	res.Object = nil
	return e.objects.Put(o)
}

// acquireSched returns a scheduler armed over [0, n): a pooled one re-armed
// via Reset when available, a fresh one otherwise.
func (e *Engine) acquireSched(n int) sched.Scheduler {
	e.schedMu.Lock()
	if k := len(e.scheds); k > 0 {
		s := e.scheds[k-1]
		e.scheds[k-1] = nil
		e.scheds = e.scheds[:k-1]
		e.schedMu.Unlock()
		s.Reset(n)
		mSchedReused.Inc()
		return s
	}
	e.schedMu.Unlock()
	return sched.New(e.cfg.Scheduler, n, e.cfg.Threads, 1)
}

// schedPoolCap bounds pooled schedulers (and split buffers); concurrent jobs
// each hold one, so a few spares cover the common case.
const schedPoolCap = 8

func (e *Engine) releaseSched(s sched.Scheduler) {
	e.schedMu.Lock()
	if len(e.scheds) < schedPoolCap {
		e.scheds = append(e.scheds, s)
	}
	e.schedMu.Unlock()
}

func (e *Engine) takeSplitBuf() []sched.Chunk {
	e.splitMu.Lock()
	defer e.splitMu.Unlock()
	if k := len(e.splitBufs); k > 0 {
		buf := e.splitBufs[k-1]
		e.splitBufs[k-1] = nil
		e.splitBufs = e.splitBufs[:k-1]
		return buf
	}
	return nil
}

func (e *Engine) putSplitBuf(buf []sched.Chunk) {
	e.splitMu.Lock()
	if len(e.splitBufs) < schedPoolCap {
		e.splitBufs = append(e.splitBufs, buf)
	}
	e.splitMu.Unlock()
}
