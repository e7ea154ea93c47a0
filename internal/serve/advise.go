package serve

import (
	"fmt"

	"chapelfreeride/internal/analyze"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// validatePins rejects unknown strategy/scheduler names and sparse shapes
// no int32 index table addresses at submission time, so clients get a
// synchronous 4xx instead of a failed job — or, for a negative shape, a
// kernel that panics sizing its vectors and takes the server down.
func validatePins(p Params) error {
	if err := core.CheckSparseShape(p.Rows, p.Cols, 0); err != nil {
		return fmt.Errorf("serve: params rows/cols: %w", err)
	}
	if p.Strategy != "" {
		if _, err := robj.ParseStrategy(p.Strategy); err != nil {
			return fmt.Errorf("serve: params.strategy: %w", err)
		}
	}
	if p.Scheduler != "" {
		if _, err := sched.ParsePolicy(p.Scheduler); err != nil {
			return fmt.Errorf("serve: params.scheduler: %w", err)
		}
	}
	return nil
}

// planConfig picks the engine configuration for one claimed job. A built-in
// kernel gets analyze.Advise over its iteration domain, the dataset's row
// count (an spmv dataset's rows are its triples), applied to the server's
// base configuration; nothing reads a data row. A custom kernel runs on the
// base configuration. Request pins win per knob.
func (s *Server) planConfig(j *job, src dataset.Source) freeride.Config {
	cfg := s.engines[0].Config()
	switch j.Kernel {
	case "kmeans", "pca", "em", "spmv":
		cfg = analyze.Advise(&analyze.PlanProfile{Domain: src.NumRows()}, cfg.Threads).Apply(cfg)
	}
	// Parse errors cannot happen here: Submit validated the names.
	if j.Params.Strategy != "" {
		cfg.Strategy, _ = robj.ParseStrategy(j.Params.Strategy)
	}
	if j.Params.Scheduler != "" {
		cfg.Scheduler, _ = sched.ParsePolicy(j.Params.Scheduler)
	}
	return cfg
}

// engineFor returns an engine running the given configuration: the
// round-robin base pool when it matches the server's base config, else a
// lazily created cached session. The cache key space is bounded — 5
// strategies × 4 schedulers × the chunk rule's clamped power-of-two
// ladder — so a long-lived server holds a bounded set of sessions.
func (s *Server) engineFor(cfg freeride.Config) *freeride.Engine {
	if cfg == s.engines[0].Config() {
		return s.engines[s.nextEng.Add(1)%uint64(len(s.engines))]
	}
	key := fmt.Sprintf("%d/%d/%d", cfg.Strategy, cfg.Scheduler, cfg.SplitRows)
	s.altMu.Lock()
	defer s.altMu.Unlock()
	if eng, ok := s.altEngines[key]; ok {
		return eng
	}
	eng := freeride.New(cfg)
	s.altEngines[key] = eng
	return eng
}
