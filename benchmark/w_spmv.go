package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// spmv_power is a power-iteration shape on a sparse matrix large enough that
// a pass takes tens of milliseconds: the inspector runs once per job, then
// every pass feeds the previous y back as x. It is the workload that uses
// the reduction object the sparse way: a 500 k-cell object, the hashed
// worker-local accumulator and the scattered flush.
const (
	spmvDim    = 500000 // square: y feeds back as x
	spmvNNZ    = 2000000
	spmvPasses = 40
)

type spmvPower struct {
	seed    int64
	dim     int
	nnz     int
	triples *dataset.Matrix
	boxed   *chapel.Array
	want    []uint64 // hash of the expected y after each pass
}

func newSpMVPower(seed int64, scale float64) workload {
	return &spmvPower{seed: seed, dim: scaled(spmvDim, scale, 64), nnz: scaled(spmvNNZ, scale, 256)}
}

// firstX is the integer-valued starting vector.
func firstX(n int) []float64 {
	x := make([]float64, n)
	for j := range x {
		x[j] = float64(j%7 + 1)
	}
	return x
}

// nextX folds a pass's y into the next pass's x: whole numbers in [1, 7], so
// every product and sum stays exact in float64 whatever the order.
func nextX(y float64) float64 { return float64(int64(y)%7 + 1) }

// hashStep folds one float into an order-dependent 64-bit hash (FNV-1a over
// the bit pattern), so a pass's whole y is compared as one word.
func hashStep(h uint64, v float64) uint64 {
	return (h ^ math.Float64bits(v)) * 1099511628211
}

const hashSeed = 14695981039346656037

// randomTriples is nnz (row, col, value) entries of a dim × dim matrix, at
// uniformly random places, with whole values in [1, 8].
func randomTriples(seed int64, nnz, dim int) *dataset.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dataset.NewMatrix(nnz, 3)
	for i := 0; i < nnz; i++ {
		m.Data[3*i] = float64(rng.Intn(dim))
		m.Data[3*i+1] = float64(rng.Intn(dim))
		m.Data[3*i+2] = float64(rng.Intn(8) + 1)
	}
	return m
}

func (w *spmvPower) setup() error {
	w.triples = randomTriples(w.seed, w.nnz, w.dim)
	w.boxed = apps.BoxTriples(w.triples)

	// The reference results: a plain triple loop per pass, owned by the
	// benchmark, reduced to one hash per pass.
	x := firstX(w.dim)
	y := make([]float64, w.dim)
	w.want = make([]uint64, spmvPasses)
	for p := 0; p < spmvPasses; p++ {
		clear(y)
		for i := 0; i < w.nnz; i++ {
			t := w.triples.Data[3*i : 3*i+3]
			y[int(t[0])] += t[2] * x[int(t[1])]
		}
		h := uint64(hashSeed)
		for j, v := range y {
			h = hashStep(h, v)
			x[j] = nextX(v)
		}
		w.want[p] = h
	}
	return nil
}

func (w *spmvPower) teardown() error {
	w.triples, w.boxed, w.want = nil, nil, nil
	return nil
}

func (w *spmvPower) checkHashes(got []uint64) func() (int, int) {
	return func() (int, int) {
		failed := 0
		for p, h := range got {
			if h != w.want[p] {
				failed++
			}
		}
		return len(got), failed
	}
}

// job is assembled from layer calls in every form: there is no apps entry
// point that iterates SpMV, so the plain and the layered job are one.
func (w *spmvPower) job(_ bool, jt *jobTrace) (jobOut, error) {
	got := make([]uint64, 0, spmvPasses)
	t0 := time.Now()
	err := func() error {
		jt.push("core", "LinearizeCOO")
		coo, err := core.LinearizeCOO(w.boxed, w.dim, w.dim)
		jt.pop()
		if err != nil {
			return err
		}
		class := apps.SpMVClass(apps.SpMVConfig{Rows: w.dim, Cols: w.dim, X: firstX(w.dim)})
		jt.push("core", "TranslateSparse")
		tr, err := core.TranslateSparse(class, coo, core.Opt3)
		jt.pop()
		if err != nil {
			return err
		}
		jt.push("freeride", "session")
		eng := freeride.New(freeride.Config{Threads: benchThreads})
		src := tr.Source()
		jt.pop()
		defer eng.Close()
		lo := class.Hot.Ty.Lo
		for p := 0; p < spmvPasses; p++ {
			jt.push("freeride", "RunContext")
			res, err := eng.RunContext(context.Background(), tr.Spec(), src)
			jt.pop()
			if err != nil {
				return err
			}
			jt.push("apps", "update")
			h := uint64(hashSeed)
			for j, v := range res.Object.Snapshot() {
				h = hashStep(h, v)
				class.Hot.At(lo + j).(*chapel.Real).Val = nextX(v)
			}
			got = append(got, h)
			jt.pop()
			jt.push("freeride", "Release")
			err = eng.Release(res)
			jt.pop()
			if err != nil {
				return err
			}
			jt.push("core", "RefreshHot")
			tr.RefreshHot()
			jt.pop()
		}
		return nil
	}()
	wall := time.Since(t0).Seconds()
	jt.pop()
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{
		samples: []float64{wall},
		wall:    wall,
		rows:    int64(w.nnz) * spmvPasses,
		classes: map[string]int64{"passes": spmvPasses},
		check:   w.checkHashes(got),
	}, nil
}

// reference is the same forty passes through the hand-written FREERIDE SpMV.
func (w *spmvPower) reference() (float64, error) {
	x := firstX(w.dim)
	got := make([]uint64, 0, spmvPasses)
	t0 := time.Now()
	for p := 0; p < spmvPasses; p++ {
		res, err := apps.SpMVManualFR(w.triples, apps.SpMVConfig{
			Rows: w.dim, Cols: w.dim, X: x,
			Engine: freeride.Config{Threads: benchThreads},
		})
		if err != nil {
			return 0, err
		}
		h := uint64(hashSeed)
		for j, v := range res.Y {
			h = hashStep(h, v)
			x[j] = nextX(v)
		}
		got = append(got, h)
	}
	d := time.Since(t0).Seconds()
	if _, failed := w.checkHashes(got)(); failed > 0 {
		return 0, fmt.Errorf("manual FREERIDE SpMV disagrees with the triple loop on %d of %d passes", failed, spmvPasses)
	}
	return d, nil
}
