package serve

import (
	"context"
	"fmt"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
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
	// "full-locking", "opt-locking", "fixed-locking", "atomic"). Empty runs
	// full replication (a built-in kernel) or the server's configured
	// strategy (a custom kernel).
	Strategy string `json:"strategy,omitempty"`
	// Scheduler pins the split scheduling policy ("static", "dynamic",
	// "guided", "worksteal"). Empty runs dynamic (a built-in kernel) or the
	// server's configured policy (a custom kernel).
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
// (RunContext) so a server drain or client disconnect cancels the pass's
// workers, and must Release every engine Result they are done with — the
// engine sessions are shared across the server's whole job stream.
type KernelFunc func(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error)

// builtinKernels returns the server's stock kernel registry: the paper's
// evaluation applications in their serving form. The dense kernels run
// internal/apps' session loops on the job's engine; cacheBytes is the
// server's dataset cache bound, which also caps an spmv job's x and y
// vectors.
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

// initialRows validates params.k and reads the first k rows of src — the
// deterministic initialization both clustering kernels use, so a job's
// result is a pure function of (dataset recipe, params).
func initialRows(ctx context.Context, kernel string, src dataset.Source, k int) (*dataset.Matrix, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: %s needs params.k >= 1", kernel)
	}
	if src.NumRows() < k {
		return nil, fmt.Errorf("serve: dataset has %d rows, need at least k=%d", src.NumRows(), k)
	}
	init := dataset.NewMatrix(k, src.Cols())
	if err := dataset.ReadRowsContext(ctx, src, 0, k, init.Data); err != nil {
		return nil, err
	}
	return init, nil
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

// kmeansKernel is apps.KMeansSession (Lloyd's k-means, one k × (dim+1)
// sums-and-counts reduction per pass) started from the first K rows.
func kmeansKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
	p = p.withDefaults()
	init, err := initialRows(ctx, "kmeans", src, p.K)
	if err != nil {
		return nil, err
	}
	res, err := apps.KMeansSession(ctx, eng, src, init, apps.KMeansConfig{K: p.K, Iterations: p.Iterations})
	if err != nil {
		return nil, err
	}
	return &KMeansOutput{Centroids: matrixRows(res.Centroids), Counts: res.Counts, Iterations: p.Iterations}, nil
}

// PCAOutput is the pca kernel's result payload.
type PCAOutput struct {
	// Mean is the per-dimension mean vector.
	Mean []float64 `json:"mean"`
	// Variance is the diagonal of the covariance matrix, normalized by n.
	Variance []float64 `json:"variance"`
	// TotalVariance is the covariance trace.
	TotalVariance float64 `json:"total_variance"`
}

// pcaKernel is apps.PCASession: a 1×dim mean pass, then a dim×dim
// covariance pass over mean-centered rows. The serving payload is the mean
// and the covariance diagonal — the full matrix stays server-side, matching
// what a monitoring client needs.
func pcaKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, _ Params) (any, error) {
	res, err := apps.PCASession(ctx, eng, src)
	if err != nil {
		return nil, err
	}
	// apps normalizes the covariance by n-1; the payload's variance is the
	// population variance.
	n := float64(src.NumRows())
	out := &PCAOutput{Mean: res.Mean, Variance: make([]float64, len(res.Mean))}
	for j := range out.Variance {
		out.Variance[j] = res.Cov.At(j, j) * (n - 1) / n
		out.TotalVariance += out.Variance[j]
	}
	return out, nil
}

// EMOutput is the em kernel's result payload.
type EMOutput struct {
	// Means is the final K×dim component mean matrix.
	Means [][]float64 `json:"means"`
	// Variances is each component's spherical variance.
	Variances []float64 `json:"variances"`
	// Weights is each component's share of the responsibility mass.
	Weights []float64 `json:"weights"`
	// Iterations echoes the pass count performed.
	Iterations int `json:"iterations"`
}

// emKernel is apps.EMSession (a spherical gaussian mixture, one k × (dim+2)
// reduction per pass) started from the first K rows as means.
func emKernel(ctx context.Context, eng *freeride.Engine, src dataset.Source, p Params) (any, error) {
	p = p.withDefaults()
	init, err := initialRows(ctx, "em", src, p.K)
	if err != nil {
		return nil, err
	}
	res, err := apps.EMSession(ctx, eng, src, init, apps.EMConfig{K: p.K, Iterations: p.Iterations})
	if err != nil {
		return nil, err
	}
	return &EMOutput{Means: matrixRows(res.Means), Variances: res.Variances, Weights: res.Weights, Iterations: p.Iterations}, nil
}

// matrixRows reshapes m into row slices for JSON.
func matrixRows(m *dataset.Matrix) [][]float64 {
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}
