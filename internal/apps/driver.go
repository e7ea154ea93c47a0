package apps

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// loopSpec describes one iterative FREERIDE computation for runSessionLoop:
// the per-iteration reduction spec, the fold that consumes each iteration's
// merged reduction object, and an optional post-iteration step.
type loopSpec struct {
	// Iterations is the pass count.
	Iterations int
	// Spec builds iteration it's reduction spec. It is called at the start
	// of the iteration, after the previous iteration's Fold and Post, so it
	// may close over state they produced.
	Spec func(it int) freeride.Spec
	// Fold consumes iteration it's merged reduction object (update the
	// model, snapshot results). The object is released to the engine's pool
	// right after Fold returns, so any cells that must survive into the next
	// iteration have to be copied out here. Timed as Timing.Update.
	Fold func(it int, obj *robj.Object) error
	// Post, if set, runs after Fold and the release (e.g. re-linearizing
	// hot variables, or building the next phase's spec). It is not timed by
	// the driver; implementations that track Timing.HotVar account for it
	// themselves.
	Post func(it int) error
}

// runSessionLoop drives an iterative reduction on a persistent engine
// session: one RunContext per iteration, the result's reduction object handed
// back with Release so the next pass reuses it from the session pool. This is
// the one outer loop k-means, EM, and PCA share. ctx cancels the loop
// between (and, through the engine, inside) iterations.
func runSessionLoop(ctx context.Context, eng *freeride.Engine, src dataset.Source, timing *Timing, ls loopSpec) error {
	for it := 0; it < ls.Iterations; it++ {
		spec := ls.Spec(it)
		t0 := time.Now()
		res, err := eng.RunContext(ctx, spec, src)
		if err != nil {
			return err
		}
		timing.Reduce += time.Since(t0)
		t0 = time.Now()
		foldErr := ls.Fold(it, res.Object)
		timing.Update += time.Since(t0)
		if err := eng.Release(res); err != nil && foldErr == nil {
			foldErr = err
		}
		if foldErr != nil {
			return foldErr
		}
		if ls.Post != nil {
			if err := ls.Post(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSource refuses a dataset with no rows or no columns, which no
// session form has anything to reduce over.
func checkSource(app string, src dataset.Source) error {
	if src.NumRows() < 1 || src.Cols() < 1 {
		return fmt.Errorf("apps: %s needs a non-empty dataset, got %dx%d", app, src.NumRows(), src.Cols())
	}
	return nil
}
