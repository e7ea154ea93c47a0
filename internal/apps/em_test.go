package apps

import (
	"math"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// emTestData builds two well-separated blobs so EM has an easy optimum.
func emTestData(n int) (*dataset.Matrix, *dataset.Matrix) {
	points, _ := dataset.GaussianMixture(n, 2, 2, 5)
	init := dataset.NewMatrix(2, 2)
	copy(init.Data, points.Data[:4])
	return points, init
}

func emClose(t *testing.T, name string, got, want *EMResult, tol float64) {
	t.Helper()
	for i := range want.Means.Data {
		if math.Abs(got.Means.Data[i]-want.Means.Data[i]) > tol*(math.Abs(want.Means.Data[i])+1) {
			t.Fatalf("%s: mean[%d] = %v, want %v", name, i, got.Means.Data[i], want.Means.Data[i])
		}
	}
	for c := range want.Variances {
		if math.Abs(got.Variances[c]-want.Variances[c]) > tol*(want.Variances[c]+1) {
			t.Fatalf("%s: var[%d] = %v, want %v", name, c, got.Variances[c], want.Variances[c])
		}
		if math.Abs(got.Weights[c]-want.Weights[c]) > tol {
			t.Fatalf("%s: weight[%d] = %v, want %v", name, c, got.Weights[c], want.Weights[c])
		}
	}
}

func TestEMAllVersionsAgree(t *testing.T) {
	points, init := emTestData(600)
	cfg := EMConfig{K: 2, Iterations: 4, Engine: freeride.Config{Threads: 4, SplitRows: 64}}
	ref, err := EMSeq(points, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []Version{Generated, Opt1, Opt2, ManualFR} {
		got, err := runEM(v, points, init, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		// Soft assignments sum in different orders across versions; allow
		// tight relative tolerance.
		emClose(t, v.String(), got, ref, 1e-6)
	}
}

func TestEMFindsSeparatedClusters(t *testing.T) {
	// Two blobs at (0,0) and (20,20); EM must place one mean near each.
	n := 400
	m := dataset.NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		base := float64(i%2) * 20
		m.Set(i, 0, base+float64(i%7)*0.1)
		m.Set(i, 1, base+float64(i%5)*0.1)
	}
	init := dataset.NewMatrix(2, 2)
	init.Set(0, 0, 1)
	init.Set(0, 1, 1)
	init.Set(1, 0, 19)
	init.Set(1, 1, 19)
	res, err := emManualFR(m, init, EMConfig{K: 2, Iterations: 10, Engine: freeride.Config{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	d0 := math.Hypot(res.Means.At(0, 0)-0.3, res.Means.At(0, 1)-0.2)
	d1 := math.Hypot(res.Means.At(1, 0)-20.3, res.Means.At(1, 1)-20.2)
	if d0 > 1 || d1 > 1 {
		t.Fatalf("means not at the blobs: %v", res.Means.Data)
	}
	if math.Abs(res.Weights[0]-0.5) > 0.05 || math.Abs(res.Weights[1]-0.5) > 0.05 {
		t.Fatalf("weights = %v, want ~0.5 each", res.Weights)
	}
}

func TestEMThreadInvariance(t *testing.T) {
	points, init := emTestData(500)
	var ref *EMResult
	for _, threads := range []int{1, 2, 4} {
		cfg := EMConfig{K: 2, Iterations: 3, Engine: freeride.Config{Threads: threads, SplitRows: 50}}
		res, err := emManualFR(points, init, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		emClose(t, "threads", res, ref, 1e-9)
	}
}

func TestEMValidationAndVersions(t *testing.T) {
	points, init := emTestData(20)
	if _, err := EMSeq(points, init, EMConfig{K: 0, Iterations: 1}); err == nil {
		t.Fatal("K=0: want error")
	}
	if _, err := EMSeq(points, init, EMConfig{K: 2, Iterations: 0}); err == nil {
		t.Fatal("Iterations=0: want error")
	}
}

func TestEMEmptyComponentKeepsParameters(t *testing.T) {
	// One far-away initial mean attracts essentially zero responsibility
	// once variances tighten; parameters must not become NaN.
	m := dataset.NewMatrix(50, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % 3)
	}
	init := dataset.NewMatrix(2, 1)
	init.Set(0, 0, 1)
	init.Set(1, 0, 1e9)
	res, err := EMSeq(m, init, EMConfig{K: 2, Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(append([]float64{}, res.Means.Data...), res.Variances...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite parameter: means=%v vars=%v", res.Means.Data, res.Variances)
		}
	}
}
