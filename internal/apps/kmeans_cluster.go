package apps

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// KMeansClusterConfig parameterizes a distributed k-means run on the
// simulated FREERIDE cluster: every iteration each node reduces its block
// of the points, the per-node reduction objects are combined globally, and
// the centroid update happens once on the combined object — exactly the
// iterative structure the original cluster middleware executed.
type KMeansClusterConfig struct {
	// K is the number of clusters.
	K int
	// Iterations is the number of scan-and-update passes.
	Iterations int
	// Nodes is the simulated node count.
	Nodes int
	// PerNode configures each node's multicore engine.
	PerNode freeride.Config
	// Transport selects the global-combination exchange (default
	// in-process).
	Transport cluster.Transport
	// Combine selects the combination algorithm (default all-to-one).
	Combine cluster.CombineAlgo
}

// KMeansClusterResult is the distributed run's output.
type KMeansClusterResult struct {
	// Centroids is the final K×dim centroid matrix.
	Centroids *dataset.Matrix
	// Counts is the per-cluster point count from the last iteration.
	Counts []float64
	// BytesMoved is the total serialized reduction-object volume the
	// global combinations exchanged (0 for the in-process transport).
	BytesMoved int64
	// Timing is the phase breakdown (Reduce covers the per-node passes and
	// global combination).
	Timing Timing
}

// KMeansCluster runs k-means across the simulated cluster. Results are
// identical to KMeansManualFR on the same data: the reduction is
// order-independent and the global combination is deterministic.
func KMeansCluster(points, init *dataset.Matrix, cfg KMeansClusterConfig) (*KMeansClusterResult, error) {
	if cfg.K < 1 || cfg.Iterations < 1 {
		return nil, fmt.Errorf("apps: cluster k-means needs K >= 1 and Iterations >= 1")
	}
	k, dim := cfg.K, points.Cols
	cl := cluster.New(cluster.Config{
		Nodes:     cfg.Nodes,
		PerNode:   cfg.PerNode,
		Transport: cfg.Transport,
		Combine:   cfg.Combine,
	})
	defer cl.Close()
	src := dataset.NewMemorySource(points)
	// The centroids are double-buffered: each iteration reads cents and
	// writes next, then the two swap. flat is what the reduction reads, so
	// one spec serves every iteration.
	cents, next := init.Clone(), dataset.NewMatrix(k, dim)
	counts := make([]float64, k)
	var flat []float64
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				c := nearest(row, flat, k, dim)
				args.AccumulateRange(c, 0, row)
				args.Accumulate(c, dim, 1)
			}
			return nil
		},
	}
	var (
		moved  int64
		timing Timing
	)
	for it := 0; it < cfg.Iterations; it++ {
		flat = cents.Data
		t0 := time.Now()
		res, err := cl.RunContext(context.Background(), spec, src)
		if err != nil {
			return nil, err
		}
		timing.Reduce += time.Since(t0)
		moved += res.Stats.BytesMoved
		t0 = time.Now()
		updateCentroidsInto(next, counts, res.Object.Snapshot(), cents, k, dim)
		cents, next = next, cents
		timing.Update += time.Since(t0)
		if err := cl.Release(res); err != nil {
			return nil, err
		}
	}
	return &KMeansClusterResult{
		Centroids:  cents,
		Counts:     counts,
		BytesMoved: moved,
		Timing:     timing,
	}, nil
}
