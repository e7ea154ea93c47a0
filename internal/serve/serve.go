// Package serve is the reduction-as-a-service frontend: an HTTP/JSON job
// server that accepts reduction jobs — a registered kernel applied to a
// registered dataset — and runs them on a small pool of persistent
// freeride.Engine sessions. The paper's middleware assumed one application
// linked against the library; serving inverts that: many tenants share the
// engine sessions, so the frontend adds what shared infrastructure needs —
// bounded admission with backpressure (429 + Retry-After), per-tenant
// concurrency quotas with fair round-robin dequeue, recipe-based dataset
// registration with an LRU byte-bounded cache, job polling, and graceful
// drain — while the reduction path underneath stays the untouched engine.
package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
)

// Serving counters and latency histograms, in the process-wide registry so
// /metrics and /report expose them next to the engine's own families.
var (
	mJobs = obs.Default.Counter("serve_jobs_total",
		"reduction jobs admitted into the serve queue")
	mJobsCompleted = obs.Default.Counter("serve_jobs_completed_total",
		"serve jobs that finished successfully")
	mJobsFailed = obs.Default.Counter("serve_jobs_failed_total",
		"serve jobs that finished with an error")
	mJobsRejected = obs.Default.Counter("serve_jobs_rejected_total",
		"job submissions rejected by admission control (queue full or draining)")
	hQueueWait = obs.Default.Histogram("serve_queue_wait_seconds",
		"admission-to-start wait of served jobs")
	hService = obs.Default.Histogram("serve_service_seconds",
		"start-to-finish service time of served jobs")
)

// Config describes a job server.
type Config struct {
	// Engines is the engine-session pool size; jobs are spread across the
	// sessions round-robin (each session's worker pool already multiplexes
	// concurrent jobs). Default 2.
	Engines int
	// Engine configures each pooled session.
	Engine freeride.Config
	// MaxConcurrency is the number of runner slots — jobs executing at once
	// across all tenants. Default 2×Engines.
	MaxConcurrency int
	// QueueDepth bounds the admission queue; submissions beyond it are
	// rejected with ErrQueueFull (HTTP 429). Default 1024.
	QueueDepth int
	// TenantQuota caps one tenant's concurrently running jobs, keeping a
	// greedy tenant from occupying every runner slot. 0 picks the default
	// max(1, MaxConcurrency/2); negative disables the quota.
	TenantQuota int
	// CacheBytes bounds the resident dataset cache. Default 256 MiB.
	CacheBytes int64
	// RetainJobs bounds how many finished jobs stay pollable. Default 4096.
	RetainJobs int
}

func (c Config) withDefaults() Config {
	if c.Engines < 1 {
		c.Engines = 2
	}
	if c.MaxConcurrency < 1 {
		c.MaxConcurrency = 2 * c.Engines
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 1024
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = c.MaxConcurrency / 2
		if c.TenantQuota < 1 {
			c.TenantQuota = 1
		}
	} else if c.TenantQuota < 0 {
		c.TenantQuota = 0 // unlimited
	}
	if c.CacheBytes < 1 {
		c.CacheBytes = 256 << 20
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = 4096
	}
	return c
}

// Server is a running reduction-job server: engine pool, admission queue,
// dataset registry, kernel registry, and job table. Create with New, start
// the runners with Start, mount Handler on an HTTP server, and shut down
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	engines []*freeride.Engine
	nextEng atomic.Uint64

	// altEngines caches sessions for chunk-rule- or pin-derived configurations
	// that differ from the base pool's (engine configs are session-fixed, so
	// a different strategy/scheduler needs its own session). Bounded key
	// space; see engineFor.
	altMu      sync.Mutex
	altEngines map[string]*freeride.Engine

	queue *admitQueue
	jobs  *jobTable
	data  *datasetCache

	kernelMu sync.Mutex
	kernels  map[string]KernelFunc

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	started  atomic.Bool
	draining atomic.Bool
	inflight atomic.Int64
}

// New builds a server (engines created, runners not yet started).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		altEngines: map[string]*freeride.Engine{},
		queue:      newAdmitQueue(cfg.QueueDepth, cfg.TenantQuota),
		jobs:       newJobTable(cfg.RetainJobs),
		data:       newDatasetCache(cfg.CacheBytes),
		kernels:    builtinKernels(cfg.CacheBytes),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for i := 0; i < cfg.Engines; i++ {
		s.engines = append(s.engines, freeride.New(cfg.Engine))
	}
	// Gauges read live server state at exposition time; re-registering (a
	// test creating several servers) repoints them at the newest instance.
	obs.Default.GaugeFunc("serve_queue_depth",
		"jobs admitted but not yet claimed by a runner",
		func() float64 { return float64(s.queue.depth()) })
	obs.Default.GaugeFunc("serve_jobs_inflight",
		"jobs currently executing on the engine pool",
		func() float64 { return float64(s.inflight.Load()) })
	obs.Default.GaugeFunc("serve_dataset_cache_bytes",
		"resident bytes in the serve dataset cache",
		func() float64 { return float64(s.data.residentBytes()) })
	return s
}

// Start launches the runner pool. Idempotent.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.MaxConcurrency; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// RegisterKernel adds (or replaces) a named kernel. The built-in kmeans,
// pca, and em kernels are pre-registered; custom reduction specs register
// here and become submittable by name immediately.
func (s *Server) RegisterKernel(name string, fn KernelFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("serve: kernel registration needs a name and a function")
	}
	s.kernelMu.Lock()
	s.kernels[name] = fn
	s.kernelMu.Unlock()
	return nil
}

// kernel resolves a kernel by name.
func (s *Server) kernel(name string) (KernelFunc, bool) {
	s.kernelMu.Lock()
	defer s.kernelMu.Unlock()
	fn, ok := s.kernels[name]
	return fn, ok
}

// Kernels returns the registered kernel names, sorted.
func (s *Server) Kernels() []string {
	s.kernelMu.Lock()
	defer s.kernelMu.Unlock()
	out := make([]string, 0, len(s.kernels))
	for name := range s.kernels {
		out = append(out, name)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RegisterDataset records a dataset recipe and returns the stored form
// (file recipes gain Rows/Dim from the file header).
func (s *Server) RegisterDataset(spec DatasetSpec) (DatasetSpec, error) {
	return s.data.register(spec)
}

// Datasets lists the registered dataset recipes.
func (s *Server) Datasets() []DatasetSpec { return s.data.list() }

// Submit validates and admits one job. The returned job is queued; callers
// either poll its id or wait on its done channel (the HTTP layer does both).
// Admission failures are synchronous: ErrQueueFull under backpressure,
// ErrDraining once shutdown has begun, and validation errors immediately.
func (s *Server) Submit(tenant, kernelName, datasetName string, p Params) (*job, error) {
	if s.draining.Load() {
		mJobsRejected.Inc()
		return nil, ErrDraining
	}
	fn, ok := s.kernel(kernelName)
	if !ok {
		return nil, fmt.Errorf("serve: unknown kernel %q", kernelName)
	}
	spec, ok := s.data.recipe(datasetName)
	if !ok {
		return nil, fmt.Errorf("serve: unknown dataset %q", datasetName)
	}
	if err := validatePins(p); err != nil {
		return nil, err
	}
	if spec.Kind == "sparse" && (p.Rows > spec.Rows || p.Cols > spec.Dim) {
		return nil, fmt.Errorf("serve: params rows/cols %dx%d exceed sparse dataset %q's %dx%d shape",
			p.Rows, p.Cols, datasetName, spec.Rows, spec.Dim)
	}
	if tenant == "" {
		tenant = "default"
	}
	j := s.jobs.add(tenant, kernelName, datasetName, p.withDefaults(), fn)
	if err := s.queue.push(j); err != nil {
		mJobsRejected.Inc()
		return nil, err
	}
	mJobs.Inc()
	return j, nil
}

// Job returns a job's status by id.
func (s *Server) Job(id string) (Status, bool) {
	j := s.jobs.get(id)
	if j == nil {
		return Status{}, false
	}
	return j.status(), true
}

// RetryAfter estimates how long a rejected client should back off before
// resubmitting: the queued backlog divided by the runner slots, floored at
// one second and capped at 30. A heuristic, not a promise — its job is to
// spread the retry storm of a burst, not to predict service time.
func (s *Server) RetryAfter() time.Duration {
	per := s.queue.depth() / s.cfg.MaxConcurrency
	secs := 1 + per/20
	if secs > 30 {
		secs = 30
	}
	return time.Duration(secs) * time.Second
}

// runner is one executor slot: claim the next quota-eligible job, run it,
// release the tenant slot, repeat until the queue closes and drains.
func (s *Server) runner() {
	defer s.wg.Done()
	for {
		j := s.queue.pop()
		if j == nil {
			return
		}
		s.runJob(j)
		s.queue.done(j.Tenant)
	}
}

// runJob executes one claimed job on the engine pool.
func (s *Server) runJob(j *job) {
	hQueueWait.ObserveDuration(time.Since(j.submitted))
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	j.setRunning()

	var out any
	src, err := s.data.source(j.Dataset)
	if err == nil {
		// Resolve the execution configuration before the first row is
		// read: request pins win, unpinned knobs come from the chunk rule.
		cfg := s.planConfig(j, src)
		j.setExecution(cfg)
		eng := s.engineFor(cfg)
		t0 := time.Now()
		out, err = j.kernel(s.ctx, eng, src, j.Params)
		hService.ObserveDuration(time.Since(t0))
	}
	j.finish(out, err)
	if err != nil {
		mJobsFailed.Inc()
	} else {
		mJobsCompleted.Inc()
	}
	s.jobs.markFinished(j)
}

// Drain performs a graceful shutdown: intake stops immediately (submissions
// fail with ErrDraining / HTTP 503), the admitted backlog and the running
// jobs execute to completion, and Drain returns once the runner pool has
// retired. If ctx expires first, in-flight engine passes are cancelled and
// Drain returns ctx.Err() after the runners exit — every job still reaches
// a terminal state, the cancelled ones as failed.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close shuts down immediately: intake stops, in-flight passes are
// cancelled, runners retire, and the engine sessions close. Idempotent, and
// safe after Drain.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.cancel()
	s.queue.close()
	s.wg.Wait()
	var first error
	for _, eng := range s.engines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.altMu.Lock()
	for _, eng := range s.altEngines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.altEngines = map[string]*freeride.Engine{}
	s.altMu.Unlock()
	return first
}
