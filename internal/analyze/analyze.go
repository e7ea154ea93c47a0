// Package analyze is the serve frontend's chunk rule: the engine
// configuration a built-in job runs with, picked from its iteration domain
// and worker count before the first row is read. Every job runs full
// replication under dynamic self-scheduling, FREERIDE's usual default
// (§III); only the split size depends on the shape.
package analyze

import (
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// Options tunes the analysis. It has no knobs; the zero value is the only
// value.
type Options struct{}

// PlanProfile is what Advise reads of a plan.
type PlanProfile struct {
	// Domain is the executor iteration-domain length: rows for dense
	// plans, triples for sparse ones.
	Domain int
}

// DenseProfile profiles a dense rows×cols dataset reduced into a
// groups×elems object. Only the row count enters the chunk rule.
func DenseProfile(class string, rows, cols, groups, elems int, opts Options) *PlanProfile {
	return &PlanProfile{Domain: rows}
}

// Advice is the execution configuration a plan runs with. Advise is a pure
// function of (profile, threads).
type Advice struct {
	Strategy  robj.Strategy
	Scheduler sched.Policy
	// SplitRows is the split chunk size (domain rows per split).
	SplitRows int
}

// Apply overlays the advice onto a base engine configuration, leaving every
// knob the advice does not own (Threads, read-ahead, ...) untouched.
func (a Advice) Apply(base freeride.Config) freeride.Config {
	base.Strategy = a.Strategy
	base.Scheduler = a.Scheduler
	if a.SplitRows > 0 {
		base.SplitRows = a.SplitRows
	}
	return base
}

const (
	// defaultSplitRows mirrors freeride.Config.SplitRows: the chunk for an
	// empty domain.
	defaultSplitRows = 4096
	// splitsPerThread targets enough splits for load balance without
	// drowning in per-split flushes.
	splitsPerThread = 8
	// minSplitRows / maxSplitRows clamp the chunk.
	minSplitRows = 256
	maxSplitRows = 65536
)

// Advise returns full replication, dynamic scheduling and the chunk rule's
// split size for a profiled plan on the given worker count.
func Advise(p *PlanProfile, threads int) Advice {
	if threads < 1 {
		threads = 1
	}
	return Advice{
		Strategy:  robj.FullReplication,
		Scheduler: sched.Dynamic,
		SplitRows: adviseSplitRows(p.Domain, threads),
	}
}

// adviseSplitRows targets splitsPerThread splits per worker, clamped and
// rounded down to a power of two for stable, cache-friendly split sizes.
func adviseSplitRows(domain, threads int) int {
	if domain <= 0 {
		return defaultSplitRows
	}
	chunk := domain / (threads * splitsPerThread)
	if chunk < minSplitRows {
		return minSplitRows
	}
	if chunk > maxSplitRows {
		return maxSplitRows
	}
	pow := minSplitRows
	for pow*2 <= chunk {
		pow *= 2
	}
	return pow
}
