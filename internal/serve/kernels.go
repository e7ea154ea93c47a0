package serve

import (
	"context"
	"fmt"
	"math"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// Params are the kernel parameters a job submission carries. Kernels read
// what they need and validate it; unknown-to-the-kernel fields are ignored.
type Params struct {
	// K is the group count (kmeans clusters, EM components).
	K int `json:"k,omitempty"`
	// Iterations is the scan-and-update pass count. Defaults to 1.
	Iterations int `json:"iterations,omitempty"`
	// Rows, Cols are the logical matrix dimensions of a sparse job (spmv).
	// When omitted the kernel infers the tightest shape fitting the triples.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Strategy pins the reduction-object sharing strategy ("replication",
	// "full-locking", "opt-locking", "fixed-locking", "atomic"). Empty lets
	// the plan advisor pick one from the job's static profile.
	Strategy string `json:"strategy,omitempty"`
	// Scheduler pins the split scheduling policy ("static", "dynamic",
	// "guided", "worksteal"). Empty lets the plan advisor pick.
	Scheduler string `json:"scheduler,omitempty"`
}

func (p Params) withDefaults() Params {
	if p.Iterations < 1 {
		p.Iterations = 1
	}
	return p
}

// KernelFunc is a registered application kernel: it runs one job's
// reduction passes on the engine session it is handed and returns a
// JSON-serializable result. Kernels must thread ctx into every engine pass
// (RunContext/Submit) so a server drain or client disconnect cancels the
// pass's workers, and must Release every engine Result they are done with —
// the engine sessions are shared across the server's whole job stream.
type KernelFunc func(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error)

// builtinKernels returns the server's stock kernel registry: the paper's
// evaluation applications in their serving form. cacheBytes is the server's
// dataset cache bound, which also caps an spmv job's x and y vectors.
func builtinKernels(cacheBytes int64) map[string]KernelFunc {
	return map[string]KernelFunc{
		"kmeans": kmeansKernel,
		"pca":    pcaKernel,
		"em":     emKernel,
		"spmv": func(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
			return spmvKernel(ctx, eng, src, p, cacheBytes)
		},
	}
}

// initialRows reads the first k rows of src — the deterministic centroid
// initialization every clustering kernel here uses, so a job's result is a
// pure function of (dataset recipe, params).
func initialRows(ctx context.Context, src dataset.Source, k int) ([]float64, error) {
	dim := src.Cols()
	if src.NumRows() < k {
		return nil, fmt.Errorf("serve: dataset has %d rows, need at least k=%d", src.NumRows(), k)
	}
	init := make([]float64, k*dim)
	if err := dataset.ReadRowsContext(ctx, src, 0, k, init); err != nil {
		return nil, err
	}
	return init, nil
}

// takeCells copies the merged cells out of res and hands its object back to
// the session pool. Snapshot aliases the pooled object's storage, so a slice
// kept past Release is overwritten by the next same-shape job on the shared
// session (TestConcurrentSameShapeJobs).
func takeCells(eng *freeride.Engine, res *freeride.Result) ([]float64, error) {
	cells := append([]float64(nil), res.Object.Snapshot()...)
	return cells, eng.Release(res)
}

// KMeansOutput is the kmeans kernel's result payload.
type KMeansOutput struct {
	// Centroids is the final K×dim centroid matrix, row per cluster.
	Centroids [][]float64 `json:"centroids"`
	// Counts is the last iteration's per-cluster assignment counts.
	Counts []float64 `json:"counts"`
	// Iterations echoes the pass count performed.
	Iterations int `json:"iterations"`
}

// kmeansKernel is Lloyd's k-means: per pass, one engine reduction
// accumulates per-cluster coordinate sums and counts (k groups × dim+1
// cells, count last — the same reduction-object layout as internal/apps),
// then the update step divides. Centroids start as the first K rows.
func kmeansKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
	p = p.withDefaults()
	if p.K < 1 {
		return nil, fmt.Errorf("serve: kmeans needs params.k >= 1")
	}
	k, dim := p.K, src.Cols()
	cents, err := initialRows(ctx, src, k)
	if err != nil {
		return nil, err
	}
	counts := make([]float64, k)
	for it := 0; it < p.Iterations; it++ {
		flat := cents
		res, err := eng.RunContext(ctx, freeride.Spec{
			Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
			Reduction: func(args *freeride.ReductionArgs) error {
				for i := 0; i < args.NumRows; i++ {
					row := args.Row(i)
					best, bestDist := 0, math.Inf(1)
					for c := 0; c < k; c++ {
						cc := flat[c*dim : (c+1)*dim]
						var d float64
						for j := 0; j < dim; j++ {
							diff := row[j] - cc[j]
							d += diff * diff
						}
						if d < bestDist {
							best, bestDist = c, d
						}
					}
					for j := 0; j < dim; j++ {
						args.Accumulate(best, j, row[j])
					}
					args.Accumulate(best, dim, 1)
				}
				return nil
			},
		}, src)
		if err != nil {
			return nil, err
		}
		sums, err := takeCells(eng, res)
		if err != nil {
			return nil, err
		}
		next := make([]float64, k*dim)
		for c := 0; c < k; c++ {
			cells := sums[c*(dim+1) : (c+1)*(dim+1)]
			counts[c] = cells[dim]
			if counts[c] == 0 {
				copy(next[c*dim:(c+1)*dim], cents[c*dim:(c+1)*dim])
				continue
			}
			for j := 0; j < dim; j++ {
				next[c*dim+j] = cells[j] / counts[c]
			}
		}
		cents = next
	}
	return &KMeansOutput{Centroids: unflatten(cents, k, dim), Counts: counts, Iterations: p.Iterations}, nil
}

// PCAOutput is the pca kernel's result payload.
type PCAOutput struct {
	// Mean is the per-dimension mean vector.
	Mean []float64 `json:"mean"`
	// Variance is the diagonal of the covariance matrix.
	Variance []float64 `json:"variance"`
	// TotalVariance is the covariance trace.
	TotalVariance float64 `json:"total_variance"`
}

// pcaKernel runs PCA's two reduction passes (the paper's structure): a
// 1×dim mean pass, then a dim×dim covariance pass over mean-centered rows.
// The serving payload is the mean and the covariance diagonal — the full
// matrix stays server-side, matching what a monitoring client needs.
func pcaKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, _ Params) (any, error) {
	dim := src.Cols()
	n := float64(src.NumRows())
	if n == 0 {
		return nil, fmt.Errorf("serve: pca over an empty dataset")
	}
	res, err := eng.RunContext(ctx, freeride.Spec{
		Object: freeride.ObjectSpec{Groups: 1, Elems: dim, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				for j := 0; j < dim; j++ {
					args.Accumulate(0, j, row[j])
				}
			}
			return nil
		},
	}, src)
	if err != nil {
		return nil, err
	}
	mean, err := takeCells(eng, res)
	if err != nil {
		return nil, err
	}
	for j := range mean {
		mean[j] /= n
	}

	res, err = eng.RunContext(ctx, freeride.Spec{
		Object: freeride.ObjectSpec{Groups: dim, Elems: dim, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			centered := make([]float64, dim)
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				for j := 0; j < dim; j++ {
					centered[j] = row[j] - mean[j]
				}
				for a := 0; a < dim; a++ {
					for b := 0; b < dim; b++ {
						args.Accumulate(a, b, centered[a]*centered[b])
					}
				}
			}
			return nil
		},
	}, src)
	if err != nil {
		return nil, err
	}
	cov, err := takeCells(eng, res)
	if err != nil {
		return nil, err
	}
	out := &PCAOutput{Mean: mean, Variance: make([]float64, dim)}
	for j := 0; j < dim; j++ {
		out.Variance[j] = cov[j*dim+j] / n
		out.TotalVariance += out.Variance[j]
	}
	return out, nil
}

// EMOutput is the em kernel's result payload.
type EMOutput struct {
	// Means is the final K×dim component mean matrix.
	Means [][]float64 `json:"means"`
	// Weights is each component's mixing weight (responsibility mass / n).
	Weights []float64 `json:"weights"`
	// Iterations echoes the pass count performed.
	Iterations int `json:"iterations"`
}

// emKernel is expectation-maximization over a spherical, equal-prior
// gaussian mixture: the E-step computes soft responsibilities from the
// current means (unit variance), the M-step re-estimates means from the
// responsibility-weighted sums. One engine reduction per iteration with a
// k × (dim+1) object — weighted coordinate sums plus responsibility mass.
func emKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
	p = p.withDefaults()
	if p.K < 1 {
		return nil, fmt.Errorf("serve: em needs params.k >= 1")
	}
	k, dim := p.K, src.Cols()
	n := float64(src.NumRows())
	means, err := initialRows(ctx, src, k)
	if err != nil {
		return nil, err
	}
	weights := make([]float64, k)
	for it := 0; it < p.Iterations; it++ {
		flat := means
		res, err := eng.RunContext(ctx, freeride.Spec{
			Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
			Reduction: func(args *freeride.ReductionArgs) error {
				resp := make([]float64, k)
				for i := 0; i < args.NumRows; i++ {
					row := args.Row(i)
					// Soft assignment: softmax over -d²/2, computed against
					// the minimum distance for numerical stability.
					minD := math.Inf(1)
					for c := 0; c < k; c++ {
						cc := flat[c*dim : (c+1)*dim]
						var d float64
						for j := 0; j < dim; j++ {
							diff := row[j] - cc[j]
							d += diff * diff
						}
						resp[c] = d
						if d < minD {
							minD = d
						}
					}
					var total float64
					for c := 0; c < k; c++ {
						resp[c] = math.Exp(-(resp[c] - minD) / 2)
						total += resp[c]
					}
					for c := 0; c < k; c++ {
						r := resp[c] / total
						for j := 0; j < dim; j++ {
							args.Accumulate(c, j, r*row[j])
						}
						args.Accumulate(c, dim, r)
					}
				}
				return nil
			},
		}, src)
		if err != nil {
			return nil, err
		}
		sums, err := takeCells(eng, res)
		if err != nil {
			return nil, err
		}
		next := make([]float64, k*dim)
		for c := 0; c < k; c++ {
			cells := sums[c*(dim+1) : (c+1)*(dim+1)]
			mass := cells[dim]
			weights[c] = mass / n
			if mass == 0 {
				copy(next[c*dim:(c+1)*dim], means[c*dim:(c+1)*dim])
				continue
			}
			for j := 0; j < dim; j++ {
				next[c*dim+j] = cells[j] / mass
			}
		}
		means = next
	}
	return &EMOutput{Means: unflatten(means, k, dim), Weights: weights, Iterations: p.Iterations}, nil
}

// unflatten reshapes a flat k×dim block into row slices for JSON.
func unflatten(flat []float64, k, dim int) [][]float64 {
	out := make([][]float64, k)
	for c := 0; c < k; c++ {
		out[c] = flat[c*dim : (c+1)*dim : (c+1)*dim]
	}
	return out
}
