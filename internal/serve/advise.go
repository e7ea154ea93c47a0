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

// Execution records how a job's engine configuration was chosen — echoed in
// Status so clients can see which strategy/scheduler ran and why.
type Execution struct {
	// Strategy and Scheduler are the display names of the knobs the job
	// ran with.
	Strategy  string
	Scheduler string
	// Advised reports the plan advisor picked the configuration (at least
	// one knob was not pinned by the request).
	Advised bool
	// Trace is the advisor's rule trace (empty for fully pinned jobs).
	Trace []string
}

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

// planConfig picks the engine configuration for one claimed job: request
// pins win; everything unpinned is filled by analyze.Advise over the
// kernel's static plan profile (object shape from the params, domain from
// the dataset recipe — nothing reads a data row). Kernels with no
// registered plan shape run on the server's base configuration.
func (s *Server) planConfig(j *job, src dataset.Source) (freeride.Config, Execution) {
	base := s.engines[0].Config()
	pr := builtinProfile(j.Kernel, src, j.Params)

	var cfg freeride.Config
	exec := Execution{}
	if pr == nil {
		cfg = base
		if j.Params.Strategy == "" || j.Params.Scheduler == "" {
			exec.Trace = append(exec.Trace,
				fmt.Sprintf("kernel %q has no registered plan shape; unpinned knobs use the server defaults", j.Kernel))
		}
	} else {
		adv := analyze.Advise(pr, base.Threads)
		cfg = adv.Apply(base)
		exec.Advised = true
		exec.Trace = adv.Trace
	}
	// Pins override whatever the advisor (or the defaults) chose. Parse
	// errors cannot happen here: Submit validated the names.
	if j.Params.Strategy != "" {
		st, _ := robj.ParseStrategy(j.Params.Strategy)
		cfg.Strategy = st
		exec.Trace = append(exec.Trace, fmt.Sprintf("strategy pinned to %s by the request", st))
	}
	if j.Params.Scheduler != "" {
		pol, _ := sched.ParsePolicy(j.Params.Scheduler)
		cfg.Scheduler = pol
		exec.Trace = append(exec.Trace, fmt.Sprintf("scheduler pinned to %s by the request", pol))
	}
	if j.Params.Strategy != "" && j.Params.Scheduler != "" {
		exec.Advised = false
	}
	exec.Strategy = cfg.Strategy.String()
	exec.Scheduler = cfg.Scheduler.String()
	return cfg, exec
}

// builtinProfile builds the static plan profile for a built-in kernel, or
// nil when the kernel's plan shape is unknown (custom registrations).
func builtinProfile(kernel string, src dataset.Source, p Params) *analyze.PlanProfile {
	rows, cols := src.NumRows(), src.Cols()
	switch kernel {
	case "kmeans", "em":
		if p.K < 1 {
			return nil
		}
		return analyze.DenseProfile(kernel, rows, cols, p.K, cols+1, analyze.Options{})
	case "pca":
		// The dim×dim covariance pass dominates the two-pass pipeline; the
		// advice for it serves the 1×dim mean pass too.
		return analyze.DenseProfile(kernel, rows, cols, cols, cols, analyze.Options{})
	case "spmv":
		// The dataset rows are COO triples, so the scatter domain is the
		// nonzero count. Without pinned matrix dims the object size is
		// unknown; assume nnz cells — the conservative large-object case.
		cells := p.Rows
		if cells < 1 {
			cells = rows
		}
		return analyze.SparseShapeProfile(kernel, rows, cells, analyze.Options{})
	default:
		return nil
	}
}

// engineFor returns an engine running the given configuration: the
// round-robin base pool when it matches the server's base config, else a
// lazily created cached session. The cache key space is bounded — 5
// strategies × 4 schedulers × the advisor's clamped power-of-two chunk
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
