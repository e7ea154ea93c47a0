package main

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// kmeans_translated is the paper's Fig 10/11 shape scaled up until one job
// takes over a second: boxed Chapel points translated at opt-2, against the
// hand-written FREERIDE version on the same data.
const (
	kmtRows  = 400000
	kmtDim   = 10
	kmtK     = 100
	kmtIters = 4
)

type kmeansTranslated struct {
	seed  int64
	rows  int
	cfg   apps.KMeansConfig
	data  *dataset.Matrix
	init  *dataset.Matrix
	boxed *chapel.Array
	want  *apps.KMeansResult
}

func newKMeansTranslated(seed int64, scale float64) workload {
	return &kmeansTranslated{
		seed: seed,
		rows: scaled(kmtRows, scale, kmtK),
		cfg: apps.KMeansConfig{
			K: kmtK, Iterations: kmtIters,
			Engine: freeride.Config{Threads: benchThreads},
		},
	}
}

// scaled shrinks a size for the smoke test, never below floor.
func scaled(n int, scale float64, floor int) int {
	return max(int(float64(n)*scale), floor)
}

// firstRows copies the first k rows of m: the deterministic initial
// centroids every k-means in the repo starts from.
func firstRows(m *dataset.Matrix, k int) *dataset.Matrix {
	init := dataset.NewMatrix(k, m.Cols)
	copy(init.Data, m.Data[:k*m.Cols])
	return init
}

func (w *kmeansTranslated) setup() error {
	w.data, _ = dataset.GaussianMixture(w.rows, kmtDim, kmtK, w.seed)
	w.init = firstRows(w.data, kmtK)
	w.boxed = apps.BoxPoints(w.data)
	var err error
	w.want, err = apps.KMeansSeq(w.data, w.init, w.cfg)
	return err
}

func (w *kmeansTranslated) teardown() error {
	w.data, w.init, w.boxed, w.want = nil, nil, nil, nil
	return nil
}

func (w *kmeansTranslated) job(layered bool, jt *jobTrace) (jobOut, error) {
	var got *apps.KMeansResult
	var err error
	t0 := time.Now()
	if layered {
		got, err = kmeansFromLayers(jt, w.boxed, w.init, w.cfg)
	} else {
		got, err = apps.KMeansTranslated(w.boxed, w.init, core.Opt2, w.cfg)
	}
	wall := time.Since(t0).Seconds()
	jt.pop()
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{
		samples: []float64{wall},
		wall:    wall,
		rows:    int64(w.rows) * kmtIters,
		classes: map[string]int64{"passes": kmtIters},
		check:   func() (int, int) { return 1, kmeansMismatch(got.Centroids, got.Counts, w.want) },
	}, nil
}

func (w *kmeansTranslated) reference() (float64, error) {
	t0 := time.Now()
	got, err := apps.KMeansManualFR(w.data, w.init, w.cfg)
	d := time.Since(t0).Seconds()
	if err != nil {
		return 0, err
	}
	if kmeansMismatch(got.Centroids, got.Counts, w.want) != 0 {
		return 0, fmt.Errorf("manual FREERIDE reference disagrees with the sequential result")
	}
	return d, nil
}

// kmeansMismatch compares a k-means result with the sequential reference:
// counts integer-exact, centroids to 1e-9 relative. It returns 1 on a
// mismatch, the job being one operation.
func kmeansMismatch(cents *dataset.Matrix, counts []float64, want *apps.KMeansResult) int {
	if len(counts) != len(want.Counts) || len(cents.Data) != len(want.Centroids.Data) {
		return 1
	}
	for i, c := range counts {
		if c != want.Counts[i] {
			return 1
		}
	}
	for i, v := range cents.Data {
		if !relClose(v, want.Centroids.Data[i], 1e-9) {
			return 1
		}
	}
	return 0
}

// kmeansFromLayers is apps.KMeansTranslated taken apart: translate (with the
// linearization it reports as a child span), one engine pass per iteration,
// the centroid update owned by the benchmark, and the hot-variable refresh. It exists so a traced job has a span per layer call
// and trace.e2e_gap can say the pieces add up to the entry point.
func kmeansFromLayers(jt *jobTrace, boxed *chapel.Array, init *dataset.Matrix, cfg apps.KMeansConfig) (*apps.KMeansResult, error) {
	k, dim := cfg.K, init.Cols
	cents := init.Clone()

	jt.push("apps", "BoxPoints")
	boxedCents := apps.BoxPoints(cents)
	jt.pop()

	jt.push("core", "TranslateWith")
	tr, err := core.TranslateWith(apps.KMeansClass(k, dim, boxedCents), boxed, core.Opt2, core.TranslateOptions{})
	if err == nil {
		jt.child("core", "linearize", tr.LinearizeTime)
	}
	jt.pop()
	if err != nil {
		return nil, err
	}

	jt.push("freeride", "session")
	eng := freeride.New(cfg.Engine)
	src := tr.Source()
	jt.pop()
	defer eng.Close()

	var counts []float64
	for it := 0; it < cfg.Iterations; it++ {
		jt.push("freeride", "RunContext")
		res, err := eng.RunContext(context.Background(), tr.Spec(), src)
		jt.pop()
		if err != nil {
			return nil, err
		}
		jt.push("apps", "update")
		cents, counts = updateCentroids(res.Object.Snapshot(), cents, k, dim)
		for c := 0; c < k; c++ {
			coords := boxedCents.At(c + 1).(*chapel.Record).Field("coords").(*chapel.Array)
			for j := 0; j < dim; j++ {
				coords.SetAt(j+1, &chapel.Real{Val: cents.At(c, j)})
			}
		}
		jt.pop()
		jt.push("freeride", "Release")
		err = eng.Release(res)
		jt.pop()
		if err != nil {
			return nil, err
		}
		jt.push("core", "RefreshHotVars")
		tr.RefreshHotVars()
		jt.pop()
	}
	return &apps.KMeansResult{Centroids: cents, Counts: counts}, nil
}

// updateCentroids is the benchmark's own centroid update over a k-means
// reduction object (k groups of dim sums then a count): empty clusters keep
// their centroid.
func updateCentroids(cells []float64, prev *dataset.Matrix, k, dim int) (*dataset.Matrix, []float64) {
	next := dataset.NewMatrix(k, dim)
	counts := make([]float64, k)
	for c := 0; c < k; c++ {
		g := cells[c*(dim+1) : (c+1)*(dim+1)]
		counts[c] = g[dim]
		if counts[c] == 0 {
			copy(next.Row(c), prev.Row(c))
			continue
		}
		for j := 0; j < dim; j++ {
			next.Set(c, j, g[j]/counts[c])
		}
	}
	return next, counts
}
