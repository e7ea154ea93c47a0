package analyze_test

import (
	"testing"

	"chapelfreeride/internal/analyze"
	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestAdvisedRunBitIdentical: the advice only moves execution knobs
// (strategy, scheduler, chunk), never numerics, so a run under the advised
// configuration is bit-identical to the same workload under any hand-picked
// configuration. Pinned at one worker, where the accumulation order is the
// sequential split order for every strategy and scheduler; at higher thread
// counts floating-point merge order is scheduler-dependent by design.
func TestAdvisedRunBitIdentical(t *testing.T) {
	const k, iters = 4, 3
	points, _ := dataset.GaussianMixture(2048, 6, k, 42)
	init := dataset.NewMatrix(k, 6)
	copy(init.Data, points.Data[:k*6])

	run := func(cfg freeride.Config) *dataset.Matrix {
		res, err := apps.KMeansManualFR(points, init, apps.KMeansConfig{
			K: k, Iterations: iters, Engine: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Centroids
	}

	pr := analyze.DenseProfile("kmeans", points.Rows, points.Cols, k, points.Cols+1, analyze.Options{})
	adv := analyze.Advise(pr, 1)
	advised := run(adv.Apply(freeride.Config{Threads: 1}))

	for _, st := range robj.Strategies() {
		for _, pol := range []sched.Policy{sched.Static, sched.Dynamic, sched.WorkStealing} {
			got := run(freeride.Config{Threads: 1, Strategy: st, Scheduler: pol})
			if !got.Equal(advised) {
				t.Fatalf("advised centroids differ from hand-picked %s/%s", st, pol)
			}
		}
	}
}
