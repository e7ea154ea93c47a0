package apps

import (
	"context"
	"fmt"
	"math"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// EM fits a k-component spherical Gaussian mixture with
// expectation-maximization. EM clustering was one of the applications the
// FREERIDE line of work parallelized; unlike k-means its E-step makes
// *soft* assignments, so every point updates every cluster's cells of the
// reduction object — a denser accumulate pattern that stresses the
// reduction object differently.
//
// The reduction object has k groups × (dim+2) elements: per cluster the
// responsibility-weighted coordinate sums, the responsibility total, and
// the weighted squared-distance sum (for the variance update). Components
// keep fixed uniform weights and a shared spherical variance per cluster —
// the textbook simplification that keeps every version's arithmetic
// identical and deterministic.

// EMConfig parameterizes an EM run.
type EMConfig struct {
	// K is the mixture component count.
	K int
	// Iterations is the number of EM rounds.
	Iterations int
	// Engine configures the FREERIDE engine.
	Engine freeride.Config
}

func (c EMConfig) validate() error {
	if c.K < 1 {
		return fmt.Errorf("apps: EM needs K >= 1, got %d", c.K)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("apps: EM needs Iterations >= 1, got %d", c.Iterations)
	}
	return nil
}

// EMResult is the fitted mixture.
type EMResult struct {
	// Means is the K×dim component mean matrix.
	Means *dataset.Matrix
	// Variances is the per-component spherical variance.
	Variances []float64
	// Weights is the per-component responsibility mass from the last
	// iteration, normalized to sum to 1.
	Weights []float64
	// Timing is the phase breakdown.
	Timing Timing
}

// emState bundles the model parameters one E-step reads.
type emState struct {
	means     []float64 // k×dim flat
	variances []float64 // k
}

// emResponsibilities computes the E-step responsibilities of one point
// under the current model into resp (length k). The computation is shared
// verbatim by every version so results agree bit for bit.
func emResponsibilities(point []float64, st *emState, k, dim int, resp []float64) {
	// Unnormalized log densities with a shared floor for stability.
	maxLog := math.Inf(-1)
	for c := 0; c < k; c++ {
		v := st.variances[c]
		if v < 1e-6 {
			v = 1e-6
		}
		var d float64
		mu := st.means[c*dim : (c+1)*dim]
		for j := 0; j < dim; j++ {
			diff := point[j] - mu[j]
			d += diff * diff
		}
		l := -0.5*d/v - 0.5*float64(dim)*math.Log(v)
		resp[c] = l
		if l > maxLog {
			maxLog = l
		}
	}
	var sum float64
	for c := 0; c < k; c++ {
		resp[c] = math.Exp(resp[c] - maxLog)
		sum += resp[c]
	}
	for c := 0; c < k; c++ {
		resp[c] /= sum
	}
}

// emAccumulate folds one point's E-step into the flat k×(dim+2) sums.
func emAccumulate(point []float64, resp []float64, k, dim int, sums []float64, st *emState) {
	stride := dim + 2
	for c := 0; c < k; c++ {
		r := resp[c]
		base := c * stride
		for j := 0; j < dim; j++ {
			sums[base+j] += r * point[j]
		}
		sums[base+dim] += r
		mu := st.means[c*dim : (c+1)*dim]
		var d float64
		for j := 0; j < dim; j++ {
			diff := point[j] - mu[j]
			d += diff * diff
		}
		sums[base+dim+1] += r * d
	}
}

// emUpdate performs the M-step from accumulated sums, returning the new
// state; empty components keep their previous parameters.
func emUpdate(sums []float64, prev *emState, k, dim int) (*emState, []float64) {
	stride := dim + 2
	next := &emState{means: make([]float64, k*dim), variances: make([]float64, k)}
	weights := make([]float64, k)
	var totalMass float64
	for c := 0; c < k; c++ {
		mass := sums[c*stride+dim]
		totalMass += mass
		if mass < 1e-12 {
			copy(next.means[c*dim:(c+1)*dim], prev.means[c*dim:(c+1)*dim])
			next.variances[c] = prev.variances[c]
			continue
		}
		for j := 0; j < dim; j++ {
			next.means[c*dim+j] = sums[c*stride+j] / mass
		}
		next.variances[c] = sums[c*stride+dim+1] / (mass * float64(dim))
	}
	for c := 0; c < k; c++ {
		if totalMass > 0 {
			weights[c] = sums[c*stride+dim] / totalMass
		}
	}
	return next, weights
}

func emInitState(init *dataset.Matrix, k, dim int) *emState {
	st := &emState{means: make([]float64, k*dim), variances: make([]float64, k)}
	copy(st.means, init.Data)
	for c := range st.variances {
		st.variances[c] = 1
	}
	return st
}

// EMSeq is the sequential reference implementation.
func EMSeq(points, init *dataset.Matrix, cfg EMConfig) (*EMResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, points.Cols
	st := emInitState(init, k, dim)
	var weights []float64
	var timing Timing
	resp := make([]float64, k)
	for it := 0; it < cfg.Iterations; it++ {
		t0 := time.Now()
		sums := make([]float64, k*(dim+2))
		for i := 0; i < points.Rows; i++ {
			row := points.Row(i)
			emResponsibilities(row, st, k, dim, resp)
			emAccumulate(row, resp, k, dim, sums, st)
		}
		timing.Reduce += time.Since(t0)
		t0 = time.Now()
		st, weights = emUpdate(sums, st, k, dim)
		timing.Update += time.Since(t0)
	}
	return emResult(st, weights, k, dim, timing), nil
}

func emResult(st *emState, weights []float64, k, dim int, timing Timing) *EMResult {
	means := dataset.NewMatrix(k, dim)
	copy(means.Data, st.means)
	return &EMResult{Means: means, Variances: st.variances, Weights: weights, Timing: timing}
}

// EMSession runs manual FREERIDE EM from the K×dim means init on a
// caller-owned engine session; cfg.Engine is not read, and ctx cancels the
// passes.
func EMSession(ctx context.Context, eng *freeride.Engine, src dataset.Source, init *dataset.Matrix, cfg EMConfig) (*EMResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkSource("EM", src); err != nil {
		return nil, err
	}
	k, dim := cfg.K, src.Cols()
	st := emInitState(init, k, dim)
	var timing Timing
	var weights []float64
	err := runSessionLoop(ctx, eng, src, &timing, loopSpec{
		Iterations: cfg.Iterations,
		Spec: func(int) freeride.Spec {
			cur := st
			return freeride.Spec{
				Object: freeride.ObjectSpec{Groups: k, Elems: dim + 2, Op: robj.OpAdd},
				Reduction: func(args *freeride.ReductionArgs) error {
					resp := args.Scratch(0, k)
					local := args.Scratch(1, k*(dim+2))
					for i := range local {
						local[i] = 0
					}
					for i := 0; i < args.NumRows; i++ {
						row := args.Row(i)
						emResponsibilities(row, cur, k, dim, resp)
						emAccumulate(row, resp, k, dim, local, cur)
					}
					for c := 0; c < k; c++ {
						args.AccumulateRange(c, 0, local[c*(dim+2):(c+1)*(dim+2)])
					}
					return nil
				},
			}
		},
		Fold: func(_ int, obj *robj.Object) error {
			st, weights = emUpdate(obj.Snapshot(), st, k, dim)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return emResult(st, weights, k, dim, timing), nil
}

// EMClass builds the translator input for EM: the per-point E-step kernel
// reading the model parameters through two hot variables (means as a
// k×dim structure, variances as a vector).
func EMClass(k, dim int, means, variances *chapel.Array) *core.ReductionClass {
	return &core.ReductionClass{
		Name:   "em",
		Object: freeride.ObjectSpec{Groups: k, Elems: dim + 2, Op: robj.OpAdd},
		Path:   []string{"coords"},
		HotVars: []core.HotVar{
			{Value: means, Path: []string{"coords"}},
			{Value: variances},
		},
		Kernel: func(elem *core.Vec, hot []*core.StateVec, args *freeride.ReductionArgs) {
			point := elem.Row(args.Scratch(0, dim))
			resp := args.Scratch(1, k)
			mu, ok := hot[0].Dense()
			if !ok {
				mu = gatherRows(hot[0], args.Scratch(2, k*dim), args.Scratch(3, dim))
			}
			vars := hot[1].Row(1, args.Scratch(4, k))
			st := emState{means: mu, variances: vars}
			emResponsibilities(point, &st, k, dim, resp)
			local := args.Scratch(5, k*(dim+2))
			for i := range local {
				local[i] = 0
			}
			emAccumulate(point, resp, k, dim, local, &st)
			for c := 0; c < k; c++ {
				for e := 0; e < dim+2; e++ {
					if v := local[c*(dim+2)+e]; v != 0 {
						args.Accumulate(c, e, v)
					}
				}
			}
		},
	}
}

// EMTranslated runs EM through the Chapel→FREERIDE translation at the
// given optimization level.
func EMTranslated(boxedPoints *chapel.Array, init *dataset.Matrix, opt core.OptLevel, cfg EMConfig) (*EMResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, init.Cols
	st := emInitState(init, k, dim)
	boxedMeans := BoxPoints(init)
	boxedVars := BoxVector(st.variances)

	tr, err := core.Translate(EMClass(k, dim, boxedMeans, boxedVars), boxedPoints, opt)
	if err != nil {
		return nil, err
	}
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	src := tr.Source()
	var timing Timing
	timing.Linearize = tr.LinearizeTime
	var weights []float64
	err = runSessionLoop(context.Background(), eng, src, &timing, loopSpec{
		Iterations: cfg.Iterations,
		Spec:       func(int) freeride.Spec { return tr.Spec() },
		Fold: func(_ int, obj *robj.Object) error {
			st, weights = emUpdate(obj.Snapshot(), st, k, dim)
			// Write the new model back into the boxed hot variables so Post
			// can re-linearize them.
			for c := 0; c < k; c++ {
				coords := boxedMeans.At(c + 1).(*chapel.Record).Field("coords").(*chapel.Array)
				for j := 0; j < dim; j++ {
					coords.SetAt(j+1, &chapel.Real{Val: st.means[c*dim+j]})
				}
				boxedVars.SetAt(c+1, &chapel.Real{Val: st.variances[c]})
			}
			return nil
		},
		Post: func(int) error {
			hotBefore := tr.HotLinearizeTime
			tr.RefreshHotVars()
			timing.HotVar += tr.HotLinearizeTime - hotBefore
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return emResult(st, weights, k, dim, timing), nil
}
