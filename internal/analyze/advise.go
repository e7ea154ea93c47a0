package analyze

import (
	"encoding/json"
	"fmt"

	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// Advice is the advisor's pick: the execution configuration a plan should
// run with, plus the rule trace that explains it. Advise is a pure function
// of (profile, threads) — same inputs, same advice, always — so the pick is
// reproducible and testable, unlike runtime auto-tuning.
type Advice struct {
	// Strategy is the advised reduction-object sharing strategy.
	Strategy robj.Strategy `json:"strategy"`
	// Scheduler is the advised split scheduling policy.
	Scheduler sched.Policy `json:"scheduler"`
	// SplitRows is the advised split chunk size (domain rows per split).
	SplitRows int `json:"split_rows"`
	// SparseAccCells overrides the hashed-accumulator threshold: 0 keeps
	// the engine default, negative disables the hashed path.
	SparseAccCells int `json:"sparse_acc_cells"`
	// Trace lists the rules that fired, in order — the explainable "why"
	// behind each knob.
	Trace []string `json:"trace"`
}

// MarshalJSON renders the enum knobs by display name ("replication",
// "worksteal", ...) so the -analyze-json output is self-describing.
func (a Advice) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Strategy       string   `json:"strategy"`
		Scheduler      string   `json:"scheduler"`
		SplitRows      int      `json:"split_rows"`
		SparseAccCells int      `json:"sparse_acc_cells,omitempty"`
		Trace          []string `json:"trace"`
	}{a.Strategy.String(), a.Scheduler.String(), a.SplitRows, a.SparseAccCells, a.Trace})
}

// Apply overlays the advice onto a base engine configuration, leaving every
// knob the advisor does not own (Threads, read-ahead, ...) untouched.
func (a Advice) Apply(base freeride.Config) freeride.Config {
	base.Strategy = a.Strategy
	base.Scheduler = a.Scheduler
	if a.SplitRows > 0 {
		base.SplitRows = a.SplitRows
	}
	if a.SparseAccCells != 0 {
		base.SparseAccCells = a.SparseAccCells
	}
	return base
}

// Advisor thresholds. Exported nowhere: the advisor's contract is its
// behavior (pinned by advise_test.go and TestAdvisedRunBitIdentical), not
// these numbers.
const (
	// hotspotShare: above this hot-cell share, per-cell synchronization
	// serializes and replication wins regardless of object size.
	hotspotShare = 0.5
	// mergeToUpdateRatio: replication's end-of-pass merge costs
	// cells×threads cell-adds; when that exceeds this multiple of the
	// update count (domain), the merge dominates the pass and per-cell
	// CAS wins. Set from a strategy × density sweep of sparse SpMV, where
	// the ranking crossed over between density 1e-4 (atomic wins) and 1e-2
	// (replication wins).
	mergeToUpdateRatio = 4
	// skewForStealing: above this max/mean alias skew, split costs are
	// uneven enough that work stealing beats dynamic self-scheduling.
	skewForStealing = 4.0
	// splitsPerThread targets enough splits for load balance without
	// drowning in per-split flushes.
	splitsPerThread = 8
	// minSplitRows / maxSplitRows clamp the advised chunk.
	minSplitRows = 256
	maxSplitRows = 65536
)

// Advise picks (strategy, scheduler, chunk) for a profiled plan running on
// the given worker count. Deterministic: the rules are ordered and purely
// arithmetic over the profile.
func Advise(p *PlanProfile, threads int) Advice {
	if threads < 1 {
		threads = 1
	}
	a := Advice{
		Strategy:  robj.FullReplication,
		Scheduler: sched.Dynamic,
	}
	trace := func(format string, args ...any) {
		a.Trace = append(a.Trace, fmt.Sprintf(format, args...))
	}

	// --- Strategy ---
	cells := p.Writes.Cells
	switch {
	case threads == 1:
		a.Strategy = robj.FullReplication
		trace("single worker: no cross-thread writes to mediate; replication degenerates to the private object with zero synchronization")
	case cells == 1 || p.Writes.HotCellShare >= hotspotShare:
		a.Strategy = robj.FullReplication
		trace("write hotspot (cells=%d, hot-cell share %.0f%%): per-cell locks/CAS would serialize every worker on one cell; replicate and merge once", cells, 100*p.Writes.HotCellShare)
	default:
		mergeOps := cells * threads
		updates := p.Domain
		if p.Kind == "affine" {
			// Dense per-row kernels write a full group run per row, so the
			// update count is domain×elems-per-group — far above the merge
			// cost for any realistic shape.
			updates = p.Domain * maxIntA(1, p.Writes.Elems)
		}
		if mergeOps > mergeToUpdateRatio*updates {
			a.Strategy = robj.AtomicCAS
			trace("sparse touch (object %d cells × %d threads = %d merge adds vs %d updates): replication's full-object merge dwarfs the update stream; per-touched-cell CAS wins", cells, threads, mergeOps, updates)
		} else if p.Writes.Bytes > DefaultCacheBudgetBytes {
			a.Strategy = robj.OptimizedFullLocking
			trace("write set %d bytes exceeds the cache budget: %d replicated mirrors would thrash; co-located per-cell locks keep one shared copy", p.Writes.Bytes, threads)
		} else {
			a.Strategy = robj.FullReplication
			trace("object fits the cache budget (%d bytes) and updates (%d) amortize the %d-add merge: sync-free replication", p.Writes.Bytes, updates, mergeOps)
		}
	}

	// --- Scheduler ---
	if p.Kind == "inspector" && p.Writes.Skew >= skewForStealing {
		a.Scheduler = sched.WorkStealing
		trace("scatter skew %.1f (max %d vs mean %.1f writes/cell): split costs are uneven; work stealing rebalances", p.Writes.Skew, p.Writes.MaxAliases, p.Writes.MeanAliases)
	} else {
		a.Scheduler = sched.Dynamic
		trace("uniform per-row cost: dynamic self-scheduling balances without steal traffic")
	}

	// --- Chunk ---
	a.SplitRows = adviseSplitRows(p.Domain, threads)
	trace("chunk %d rows: ~%d splits per thread over a %d-row domain, clamped to [%d,%d]", a.SplitRows, splitsPerThread, p.Domain, minSplitRows, maxSplitRows)

	// --- Hashed accumulator ---
	if p.Flush.SparseAccEligible && p.Flush.SparseAccEngaged {
		if p.Flush.HashedCellsPerFlush > 0 && p.Flush.HashedCellsPerFlush*2 > p.Flush.DenseCellsPerFlush {
			a.SparseAccCells = -1
			trace("hashed flush would retire ~%d of %d cells per split: the dense sweep is cheaper; disable the hashed accumulator", p.Flush.HashedCellsPerFlush, p.Flush.DenseCellsPerFlush)
		} else {
			trace("hashed accumulator engaged: ~%d touched cells per split flush vs a %d-cell dense sweep", p.Flush.HashedCellsPerFlush, p.Flush.DenseCellsPerFlush)
		}
	}
	return a
}

// adviseSplitRows targets splitsPerThread splits per worker, clamped and
// rounded down to a power of two for stable, cache-friendly split sizes.
func adviseSplitRows(domain, threads int) int {
	if domain <= 0 {
		return DefaultSplitRows
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

func maxIntA(a, b int) int {
	if a > b {
		return a
	}
	return b
}
