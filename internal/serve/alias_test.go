package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// TestConcurrentSameShapeJobs runs pca, kmeans and em jobs of one shape each,
// every job over its own data, concurrently on one shared engine session, and
// checks every result against that dataset's sequential reference. Same-shape
// jobs draw their reduction objects from one pool slot, so a kernel that keeps
// a Snapshot past Release has it overwritten by a neighbour: a pca job's mean
// vector turns into another job's running sums while its covariance pass is
// still reading it.
func TestConcurrentSameShapeJobs(t *testing.T) {
	const (
		workers = 4
		rounds  = 8
		rows    = 3000
		pcaDim  = 8
		kmDim   = 4
		k       = 3
		iters   = 3
	)
	eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 128})
	defer eng.Close()
	ctx := context.Background()

	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-9*(1+math.Abs(want))
	}
	checkPCA := func(seed int64) {
		m := dataset.UniformMatrix(rows, pcaDim, seed, -float64(seed), 10*float64(seed))
		out, err := pcaKernel(ctx, eng, dataset.NewMemorySource(m), Params{})
		if err != nil {
			t.Errorf("pca seed %d: %v", seed, err)
			return
		}
		got := out.(*PCAOutput)
		for j := 0; j < pcaDim; j++ {
			var mean, ss float64
			for i := 0; i < rows; i++ {
				mean += m.At(i, j)
			}
			mean /= rows
			for i := 0; i < rows; i++ {
				d := m.At(i, j) - mean
				ss += d * d
			}
			if !near(got.Mean[j], mean) || !near(got.Variance[j], ss/rows) {
				t.Errorf("pca seed %d dim %d: mean %v variance %v, reference %v %v",
					seed, j, got.Mean[j], got.Variance[j], mean, ss/rows)
				return
			}
		}
	}
	checkKMeans := func(seed int64) {
		m, _ := dataset.GaussianMixture(rows, kmDim, k, seed)
		out, err := kmeansKernel(ctx, eng, dataset.NewMemorySource(m), Params{K: k, Iterations: iters})
		if err != nil {
			t.Errorf("kmeans seed %d: %v", seed, err)
			return
		}
		got := out.(*KMeansOutput)
		init := dataset.NewMatrix(k, kmDim)
		copy(init.Data, m.Data[:k*kmDim])
		ref, err := apps.KMeansSeq(m, init, apps.KMeansConfig{K: k, Iterations: iters})
		if err != nil {
			t.Errorf("kmeans seed %d reference: %v", seed, err)
			return
		}
		for c := 0; c < k; c++ {
			if got.Counts[c] != ref.Counts[c] {
				t.Errorf("kmeans seed %d cluster %d: count %v, reference %v", seed, c, got.Counts[c], ref.Counts[c])
				return
			}
			for j := 0; j < kmDim; j++ {
				if !near(got.Centroids[c][j], ref.Centroids.At(c, j)) {
					t.Errorf("kmeans seed %d centroid[%d][%d] = %v, reference %v",
						seed, c, j, got.Centroids[c][j], ref.Centroids.At(c, j))
					return
				}
			}
		}
	}

	checkEM := func(seed int64) {
		m, _ := dataset.GaussianMixture(rows, kmDim, k, seed)
		out, err := emKernel(ctx, eng, dataset.NewMemorySource(m), Params{K: k, Iterations: iters})
		if err != nil {
			t.Errorf("em seed %d: %v", seed, err)
			return
		}
		got := out.(*EMOutput)
		init := dataset.NewMatrix(k, kmDim)
		copy(init.Data, m.Data[:k*kmDim])
		ref, err := apps.EMSeq(m, init, apps.EMConfig{K: k, Iterations: iters})
		if err != nil {
			t.Errorf("em seed %d reference: %v", seed, err)
			return
		}
		for c := 0; c < k; c++ {
			if !near(got.Weights[c], ref.Weights[c]) || !near(got.Variances[c], ref.Variances[c]) {
				t.Errorf("em seed %d component %d: weight %v variance %v, reference %v %v",
					seed, c, got.Weights[c], got.Variances[c], ref.Weights[c], ref.Variances[c])
				return
			}
			for j := 0; j < kmDim; j++ {
				if !near(got.Means[c][j], ref.Means.At(c, j)) {
					t.Errorf("em seed %d mean[%d][%d] = %v, reference %v",
						seed, c, j, got.Means[c][j], ref.Means.At(c, j))
					return
				}
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		for _, check := range []func(int64){checkPCA, checkKMeans, checkEM} {
			wg.Add(1)
			go func(w int, check func(int64)) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					check(int64(1 + w*rounds + r))
				}
			}(w, check)
		}
	}
	wg.Wait()
}
