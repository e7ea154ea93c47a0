package freeride

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"chapelfreeride/internal/cputime"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// job is one reduction pass in flight on the engine's worker pool. The
// submitting goroutine builds it, enqueues one ticket per worker slot, and
// waits on done; pool workers execute runSlot per ticket. All per-slot
// fields are indexed by slot id, so concurrent slots never share an element.
type job struct {
	ctx        context.Context
	spec       Spec
	reader     dataset.Reader
	splits     []sched.Chunk
	sched      sched.Scheduler
	obj        *robj.Object
	cols       int
	threads    int
	measureCPU bool

	stop     atomic.Bool
	errOnce  sync.Once
	firstErr error

	jm           *obs.JobMetrics
	workerCPU    []time.Duration
	workerSplits []int64
	workerRows   []int64
	workerBusy   []time.Duration

	// pending counts tickets not yet finished; the last finisher closes
	// done, which is the submitter's happens-before barrier for every
	// per-slot write above.
	pending atomic.Int32
	done    chan struct{}

	reduceSpan *obs.Span
}

func (j *job) setErr(err error) {
	j.stop.Store(true)
	j.errOnce.Do(func() { j.firstErr = err })
}

// finishTickets retires n tickets; the final one completes the job.
func (j *job) finishTickets(n int32) {
	if j.pending.Add(-n) == 0 {
		close(j.done)
	}
}

// runSlot executes worker slot `slot` of the job on a pool worker: drain the
// scheduler, read each split through the job's Reader into the worker's
// persistent buffer, and run the user reduction. The finishTickets defer is
// registered first so it runs last — after every other per-slot write — and
// closing done publishes them to the submitter.
func (j *job) runSlot(slot int, ws *workerState) {
	defer j.finishTickets(1)
	// A slot whose job already failed or was cancelled while its ticket sat
	// in the queue (a cancel mid-enqueue, a sibling slot's error) bails out
	// before any setup: no spans, no user code, and — critically — no
	// scheduler traffic. Orphan tickets of a dead job retire for free.
	if j.stop.Load() {
		return
	}
	if j.measureCPU {
		start := cputime.ThreadCPU()
		defer func() { j.workerCPU[slot] = cputime.ThreadCPU() - start }()
	}
	wSpan := j.reduceSpan.Child("worker")
	wSpan.SetWorker(slot)
	defer wSpan.End()
	var blockFlushes, rowsFused int64
	defer func() {
		wc := countersForWorker(slot)
		wc.splits.Add(j.workerSplits[slot])
		wc.rows.Add(j.workerRows[slot])
		wc.busyNS.Add(int64(j.workerBusy[slot]))
		// Job-scoped deltas flush once per slot, not per split, so the hot
		// loop pays no extra locking and the alloc guards stay flat.
		j.jm.Add("freeride_splits_total", j.workerSplits[slot])
		j.jm.Add("freeride_rows_total", j.workerRows[slot])
		j.jm.Add("freeride_busy_ns_total", int64(j.workerBusy[slot]))
		j.jm.Add("freeride_block_flushes_total", blockFlushes)
		j.jm.Add("freeride_rows_fused_total", rowsFused)
	}()
	// Fused path: the worker-local accumulation buffer comes from the pool
	// worker's persistent state, so steady-state fused passes allocate
	// nothing per split.
	useBlock := j.spec.BlockReduction != nil
	var bargs BlockArgs
	var accID float64
	args := ReductionArgs{Cols: j.cols, worker: slot, object: j.obj, scratch: ws.scratch}
	if useBlock {
		bargs = BlockArgs{
			Cols:    j.cols,
			worker:  slot,
			op:      j.obj.Op(),
			groups:  j.obj.Groups(),
			elems:   j.obj.ElemsPerGroup(),
			scratch: ws.scratch,
		}
		cells := bargs.groups * bargs.elems
		if cap(ws.acc) < cells {
			ws.acc = make([]float64, cells)
		}
		bargs.acc = ws.acc[:cells]
		accID = bargs.op.Identity()
		fillIdentity(bargs.acc, accID)
		// Keep whatever scratch growth the kernel caused for the next pass.
		defer func() { ws.scratch = bargs.scratch }()
	} else {
		defer func() { ws.scratch = args.scratch }()
	}
	done := j.ctx.Done()
	for {
		if j.stop.Load() {
			return
		}
		select {
		case <-done:
			j.setErr(j.ctx.Err())
			return
		default:
		}
		ci, ok := j.sched.Next(slot)
		if !ok {
			return
		}
		for si := ci.Begin; si < ci.End; si++ {
			if j.stop.Load() {
				return
			}
			sp := j.splits[si]
			n := sp.Len()
			splitStart := time.Now()
			data, err := j.reader.Read(j.ctx, sp.Begin, sp.End, &ws.buf)
			if err != nil {
				j.setErr(err)
				return
			}
			if useBlock {
				bargs.Data = data
				bargs.NumRows = n
				bargs.Begin = sp.Begin
				if err := j.spec.BlockReduction(&bargs); err != nil {
					j.setErr(err)
					return
				}
				// One bulk synchronization event per split, then re-arm the
				// local buffer with the identity.
				j.obj.AccumulateBlock(slot, bargs.acc)
				fillIdentity(bargs.acc, accID)
				mBlockFlushes.Inc()
				mRowsFused.Add(int64(n))
				blockFlushes++
				rowsFused += int64(n)
			} else {
				args.Data = data
				args.NumRows = n
				args.Begin = sp.Begin
				if err := j.spec.Reduction(&args); err != nil {
					j.setErr(err)
					return
				}
			}
			splitDur := time.Since(splitStart)
			hSplit.ObserveDuration(splitDur)
			j.workerBusy[slot] += splitDur
			j.workerSplits[slot]++
			j.workerRows[slot] += int64(n)
		}
	}
}

// RunContext executes one reduction pass — split, parallel local reduction,
// local combination, user combination, finalize — as one job on the
// session's worker pool, and is the engine's only entry point. The returned
// Result's Object is merged and ready for Get/Snapshot; hand it back with
// Engine.Release when done so the next pass reuses the allocation.
//
// ctx governs the pass: workers check for cancellation between splits and
// stop draining the scheduler, in-flight reads through context-aware sources
// (dataset.ContextSource) are abandoned, and the call returns ctx.Err()
// promptly — even while a worker is still blocked inside a slow source read.
// First error wins; a cancelled or failed pass returns no partial result,
// and the two outcomes are counted disjointly. A source with zero rows
// yields an identity-valued reduction object (no splits are scheduled, so
// the merged object holds the Op's identity in every cell).
//
// The pass runs under the job id ctx carries (obs.WithJob) — how a
// coordinator such as the cluster layer runs several node passes as one job
// and aggregates their traces and counter deltas — or under a freshly minted
// one when ctx carries none.
func (e *Engine) RunContext(ctx context.Context, spec Spec, src dataset.Source) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Reduction == nil && spec.BlockReduction == nil {
		// Kept as a sentinel (errors.Is) ahead of the full verifier pass.
		return nil, ErrNoReduction
	}
	if src == nil {
		return nil, errors.New("freeride: nil data source")
	}
	// Structural spec legality — one verifier pass replaces the scattered
	// per-condition errors, so a bad spec is rejected with every finding
	// attached before any worker starts.
	if err := spec.Verify().Err(); err != nil {
		return nil, err
	}
	cfg := e.cfg
	obj, err := e.objects.Get(cfg.Strategy, spec.Object.Op, spec.Object.Groups, spec.Object.Elems, cfg.Threads)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	res := &Result{Object: obj}
	res.Stats.Threads = cfg.Threads
	mRuns.Inc()
	mJobs.Inc()
	jobsInflight.Add(1)
	defer jobsInflight.Add(-1)
	jobID := obs.JobFrom(ctx)
	if jobID == 0 {
		jobID = obs.NextJobID()
	}
	jm := obs.NewJobMetrics(jobID)
	jm.Add("freeride_runs_total", 1)
	res.Stats.Job = jobID
	passStart := time.Now()
	tr := obs.NewTrace()
	tr.SetJob(jobID)
	runSpan := tr.Start("run")
	// fail finishes the run on an error path: any still-open child spans are
	// ended, the run span closes, and the partial trace is flushed to obs.Log
	// so failed runs stay visible in the event log instead of vanishing.
	fail := func(err error, open ...*obs.Span) (*Result, error) {
		for _, s := range open {
			s.End()
		}
		runSpan.End()
		hPass.ObserveDuration(time.Since(passStart))
		obs.Log.AddRun(jobID, tr.Finish())
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			mRunsCancelled.Inc()
			jm.Add("freeride_runs_cancelled_total", 1)
		} else {
			mRunsFailed.Inc()
			jm.Add("freeride_runs_failed_total", 1)
		}
		return nil, err
	}

	// addPhase records one phase's wall time both process-wide and job-scoped.
	addPhase := func(phase string, d time.Duration) {
		phaseNS[phase].Add(int64(d))
		jm.Add("freeride_phase_ns_total", int64(d), obs.Label{Key: "phase", Value: phase})
	}

	// Split phase. The default splitter fills a pooled per-engine table;
	// custom splitters own their return value, so theirs is not pooled.
	splitSpan := runSpan.Child(PhaseSplit)
	t0 := time.Now()
	units := (src.NumRows() + cfg.SplitRows - 1) / cfg.SplitRows
	var splits []sched.Chunk
	pooledSplits := spec.Splitter == nil
	if pooledSplits {
		splits = appendSplits(e.takeSplitBuf(), src.NumRows(), units)
	} else {
		splits = spec.Splitter(src.NumRows(), units)
	}
	splitErr := validateSplits(splits, src.NumRows())
	res.Stats.SplitTime = time.Since(t0)
	splitSpan.End()
	addPhase(PhaseSplit, res.Stats.SplitTime)
	if splitErr != nil {
		return fail(splitErr)
	}
	res.Stats.Splits = len(splits)

	// Parallel local reduction: submit one ticket per worker slot to the
	// pool. The first error (or cancellation) flips the stop flag, so the
	// surviving slots park at their next split boundary instead of draining
	// the whole scheduler against a run that has already failed.
	reduceSpan := runSpan.Child(PhaseReduce)
	t0 = time.Now()
	j := &job{
		ctx:          ctx,
		spec:         spec,
		jm:           jm,
		reader:       dataset.NewReader(src),
		splits:       splits,
		sched:        e.acquireSched(len(splits)),
		obj:          obj,
		cols:         src.Cols(),
		threads:      cfg.Threads,
		measureCPU:   cputime.Supported(),
		workerCPU:    make([]time.Duration, cfg.Threads),
		workerSplits: make([]int64, cfg.Threads),
		workerRows:   make([]int64, cfg.Threads),
		workerBusy:   make([]time.Duration, cfg.Threads),
		done:         make(chan struct{}),
		reduceSpan:   reduceSpan,
	}
	j.pending.Store(int32(cfg.Threads))
	e.enqueue(ctx, j)

	abandoned := false
	select {
	case <-j.done:
	case <-ctx.Done():
		// Cancelled mid-phase: flag the stop and give the slots a short
		// grace to observe it. If one is still blocked inside a slow source
		// read after that, return ctx.Err() promptly anyway — the straggler
		// exits at its next cancellation check and touches only job-local
		// state the abandoned pass never reads.
		j.setErr(ctx.Err())
		grace := time.NewTimer(50 * time.Millisecond)
		select {
		case <-j.done:
			grace.Stop()
		case <-grace.C:
			abandoned = true
		}
	}
	if abandoned {
		// The straggler still holds the scheduler and split table, so they
		// are dropped for the GC instead of returned to the pools.
		addPhase(PhaseReduce, time.Since(t0))
		return fail(ctx.Err(), reduceSpan)
	}
	e.releaseSched(j.sched)
	if pooledSplits {
		e.putSplitBuf(splits)
	}
	res.Stats.ReduceTime = time.Since(t0)
	reduceSpan.End()
	addPhase(PhaseReduce, res.Stats.ReduceTime)
	if j.measureCPU {
		res.Stats.WorkerCPU = j.workerCPU
	}
	res.Stats.WorkerSplits = j.workerSplits
	res.Stats.WorkerRows = j.workerRows
	res.Stats.WorkerBusy = j.workerBusy
	for w := 0; w < cfg.Threads; w++ {
		countersForWorker(w).idleNS.Add(int64(res.Stats.WorkerIdle(w)))
	}
	if j.firstErr != nil {
		return fail(j.firstErr)
	}

	// Local combination (default combination function) + user combination.
	// Each phase is measured from its own start: CombineTime (and the
	// freeride_combine histogram) covers only the user-combination phase —
	// folding the local merge into it would double-count work already
	// reported under PhaseLocalCombine.
	t0 = time.Now()
	lcSpan := runSpan.Child(PhaseLocalCombine)
	obj.Merge()
	lcSpan.End()
	res.Stats.LocalCombineTime = time.Since(t0)
	addPhase(PhaseLocalCombine, res.Stats.LocalCombineTime)
	if spec.Combine != nil {
		tc := time.Now()
		cSpan := runSpan.Child(PhaseCombine)
		err := spec.Combine(obj)
		cSpan.End()
		res.Stats.CombineTime = time.Since(tc)
		addPhase(PhaseCombine, res.Stats.CombineTime)
		hCombine.ObserveDuration(res.Stats.CombineTime)
		if err != nil {
			return fail(err)
		}
	}

	// Finalize.
	if spec.Finalize != nil {
		t0 = time.Now()
		fSpan := runSpan.Child(PhaseFinalize)
		err := spec.Finalize(res)
		fSpan.End()
		res.Stats.FinalizeTime = time.Since(t0)
		addPhase(PhaseFinalize, res.Stats.FinalizeTime)
		if err != nil {
			return fail(err)
		}
	}
	runSpan.End()
	hPass.ObserveDuration(time.Since(passStart))
	res.Stats.Spans = tr.Finish()
	res.Stats.JobDeltas = jm.Finish()
	obs.Log.AddRun(jobID, res.Stats.Spans)
	return res, nil
}

// enqueue sends the job's tickets to the pool. Tickets not sent — because
// the engine closed underneath us or the context was cancelled while the
// channel was full — are retired immediately so the job still completes.
func (e *Engine) enqueue(ctx context.Context, j *job) {
	e.submitMu.RLock()
	defer e.submitMu.RUnlock()
	if e.isClosed() {
		j.setErr(ErrEngineClosed)
		j.finishTickets(int32(j.threads))
		return
	}
	for slot := 0; slot < j.threads; slot++ {
		select {
		case e.tickets <- ticket{j: j, slot: slot}:
		case <-ctx.Done():
			j.setErr(ctx.Err())
			j.finishTickets(int32(j.threads - slot))
			return
		}
	}
}
