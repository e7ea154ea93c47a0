package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// cluster_iter is the latency-bound opposite of ingest_fused: the points fit
// in L2, so the two thousand passes of a job cost what a pass costs when it
// has almost nothing to do — session ticket, scheduler reset, object pool
// and merge, gob frames over loopback TCP, global combine.
const (
	clusterRows  = 4000
	clusterDim   = 10
	clusterK     = 20
	clusterIters = 2000
	clusterNodes = 2
)

type clusterIter struct {
	seed int64
	rows int
	cfg  apps.KMeansClusterConfig
	data *dataset.Matrix
	init *dataset.Matrix
	want *apps.KMeansResult
}

func newClusterIter(seed int64, scale float64) workload {
	return &clusterIter{
		seed: seed,
		// The smoke test shrinks the iteration count; the points are few
		// already.
		rows: clusterRows,
		cfg: apps.KMeansClusterConfig{
			K: clusterK, Iterations: scaled(clusterIters, scale, 4), Nodes: clusterNodes,
			PerNode:   freeride.Config{Threads: 1},
			Transport: cluster.TCP,
		},
	}
}

func (w *clusterIter) seqConfig() apps.KMeansConfig {
	return apps.KMeansConfig{K: w.cfg.K, Iterations: w.cfg.Iterations, Engine: freeride.Config{Threads: benchThreads}}
}

func (w *clusterIter) setup() error {
	w.data, _ = dataset.GaussianMixture(w.rows, clusterDim, clusterK, w.seed)
	w.init = firstRows(w.data, clusterK)
	var err error
	w.want, err = apps.KMeansSeq(w.data, w.init, w.seqConfig())
	return err
}

func (w *clusterIter) teardown() error {
	w.data, w.init, w.want = nil, nil, nil
	return nil
}

func (w *clusterIter) job(layered bool, jt *jobTrace) (jobOut, error) {
	var cents *dataset.Matrix
	var counts []float64
	var err error
	t0 := time.Now()
	if layered {
		cents, counts, err = clusterKMeansFromLayers(jt, w.data, w.init, w.cfg)
	} else {
		var res *apps.KMeansClusterResult
		if res, err = apps.KMeansCluster(w.data, w.init, w.cfg); err == nil {
			cents, counts = res.Centroids, res.Counts
		}
	}
	wall := time.Since(t0).Seconds()
	jt.pop()
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{
		samples: []float64{wall},
		wall:    wall,
		rows:    int64(w.rows) * int64(w.cfg.Iterations),
		classes: map[string]int64{"passes": int64(w.cfg.Iterations)},
		check:   func() (int, int) { return 1, kmeansMismatch(cents, counts, w.want) },
	}, nil
}

// reference is the same k-means on one two-thread engine: what the cluster
// layer adds is the ratio.
func (w *clusterIter) reference() (float64, error) {
	t0 := time.Now()
	got, err := apps.KMeansManualFR(w.data, w.init, w.seqConfig())
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if kmeansMismatch(got.Centroids, got.Counts, w.want) != 0 {
		return 0, fmt.Errorf("single-engine reference disagrees with the sequential result")
	}
	return d, nil
}

// nearestCentroid is the index of the centroid closest to row, ties to the
// lowest index, as everywhere in the repo.
func nearestCentroid(row, cents []float64, k, dim int) int {
	best, bestDist := 0, math.Inf(1)
	for c := 0; c < k; c++ {
		cc := cents[c*dim : (c+1)*dim]
		var d float64
		for j := 0; j < dim; j++ {
			diff := row[j] - cc[j]
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// kmeansSpec is the benchmark's hand-written k-means reduction over flat
// rows: nearest centroid, then dim sums and a count.
func kmeansSpec(cents []float64, k, dim int) freeride.Spec {
	return freeride.Spec{
		Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				c := nearestCentroid(row, cents, k, dim)
				for j := 0; j < dim; j++ {
					args.Accumulate(c, j, row[j])
				}
				args.Accumulate(c, dim, 1)
			}
			return nil
		},
	}
}

// clusterKMeansFromLayers is apps.KMeansCluster taken apart: one cluster
// pass per iteration, the benchmark's own centroid update, the release.
func clusterKMeansFromLayers(jt *jobTrace, points, init *dataset.Matrix, cfg apps.KMeansClusterConfig) (*dataset.Matrix, []float64, error) {
	k, dim := cfg.K, points.Cols
	cents := init.Clone()
	jt.push("cluster", "session")
	cl := cluster.New(cluster.Config{Nodes: cfg.Nodes, PerNode: cfg.PerNode, Transport: cfg.Transport, Combine: cfg.Combine})
	src := dataset.NewMemorySource(points)
	jt.pop()
	defer cl.Close()

	var counts []float64
	for it := 0; it < cfg.Iterations; it++ {
		jt.push("cluster", "RunContext")
		res, err := cl.RunContext(context.Background(), kmeansSpec(cents.Data, k, dim), src)
		jt.pop()
		if err != nil {
			return nil, nil, err
		}
		jt.push("apps", "update")
		cents, counts = updateCentroids(res.Object.Snapshot(), cents, k, dim)
		jt.pop()
		jt.push("cluster", "Release")
		err = cl.Release(res)
		jt.pop()
		if err != nil {
			return nil, nil, err
		}
	}
	jt.push("cluster", "Close")
	err := cl.Close()
	jt.pop()
	return cents, counts, err
}
