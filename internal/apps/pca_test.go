package apps

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

func TestPCASeqKnownValues(t *testing.T) {
	// data: (1,2), (3,4), (5,6) → mean (3,4); cov entries all 4 (perfectly
	// correlated columns with variance 4).
	m := dataset.NewMatrix(3, 2)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	res, err := PCASeq(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean[0] != 3 || res.Mean[1] != 4 {
		t.Fatalf("mean = %v", res.Mean)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if res.Cov.At(i, j) != 4 {
				t.Fatalf("cov = %v", res.Cov.Data)
			}
		}
	}
}

func TestPCAAllVersionsAgree(t *testing.T) {
	m := intPoints(300, 6, 7)
	ref, err := PCASeq(m)
	if err != nil {
		t.Fatal(err)
	}
	cfg := PCAConfig{Engine: freeride.Config{Threads: 4, SplitRows: 32}}
	for _, v := range []Version{Generated, Opt1, Opt2, Opt3, ManualFR} {
		got, err := runPCA(v, m, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for j := range ref.Mean {
			if math.Abs(got.Mean[j]-ref.Mean[j]) > 1e-9*math.Abs(ref.Mean[j]) {
				t.Fatalf("%v: mean[%d] = %v, want %v", v, j, got.Mean[j], ref.Mean[j])
			}
		}
		for i := range ref.Cov.Data {
			diff := math.Abs(got.Cov.Data[i] - ref.Cov.Data[i])
			scale := math.Abs(ref.Cov.Data[i]) + 1
			if diff > 1e-9*scale {
				t.Fatalf("%v: cov[%d] = %v, want %v", v, i, got.Cov.Data[i], ref.Cov.Data[i])
			}
		}
	}
}

func TestPCACovarianceIsSymmetric(t *testing.T) {
	m := intPoints(200, 5, 8)
	res, err := PCAManualFR(m, PCAConfig{Engine: freeride.Config{Threads: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if math.Abs(res.Cov.At(i, j)-res.Cov.At(j, i)) > 1e-9 {
				t.Fatalf("cov not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Diagonal is non-negative (variances).
	for i := 0; i < 5; i++ {
		if res.Cov.At(i, i) < 0 {
			t.Fatalf("negative variance at %d", i)
		}
	}
}

func TestPCAValidation(t *testing.T) {
	if _, err := PCASeq(dataset.NewMatrix(0, 3)); err == nil {
		t.Fatal("empty matrix: want error")
	}
	if _, err := PCAManualFR(dataset.NewMatrix(3, 0), PCAConfig{}); err == nil {
		t.Fatal("zero-dim matrix: want error")
	}
	if _, err := PCATranslated(BoxMatrix(dataset.NewMatrix(0, 2)), 0, PCAConfig{}); err == nil {
		t.Fatal("empty boxed data: want error")
	}
}

func TestPCASingleRowCovariance(t *testing.T) {
	// n=1: covariance normalization degenerates; sums stay (all zero after
	// centering the single point on itself).
	m := dataset.NewMatrix(1, 2)
	m.Set(0, 0, 5)
	m.Set(0, 1, 7)
	res, err := PCAManualFR(m, PCAConfig{Engine: freeride.Config{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mean[0] != 5 || res.Mean[1] != 7 {
		t.Fatalf("mean = %v", res.Mean)
	}
	for _, v := range res.Cov.Data {
		if v != 0 {
			t.Fatalf("cov = %v", res.Cov.Data)
		}
	}
}

func TestPCATimingPopulated(t *testing.T) {
	m := intPoints(100, 4, 9)
	res, err := PCATranslated(BoxMatrix(m), 2, PCAConfig{Engine: freeride.Config{Threads: 2}}) // Opt2
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Linearize <= 0 || res.Timing.Reduce <= 0 {
		t.Fatalf("timing = %+v", res.Timing)
	}
}

// Property: translated PCA at every level matches sequential on random
// integer matrices.
func TestPropertyPCAMatchesSeq(t *testing.T) {
	f := func(seed int64, nRaw, dRaw, thrRaw uint8) bool {
		n := int(nRaw%100) + 5
		dim := int(dRaw%6) + 1
		threads := int(thrRaw%4) + 1
		m := intPoints(n, dim, seed)
		ref, err := PCASeq(m)
		if err != nil {
			return false
		}
		cfg := PCAConfig{Engine: freeride.Config{Threads: threads, SplitRows: 16}}
		for _, v := range []Version{Opt2, Opt3, ManualFR} {
			got, err := runPCA(v, m, cfg)
			if err != nil {
				return false
			}
			for i := range ref.Cov.Data {
				if math.Abs(got.Cov.Data[i]-ref.Cov.Data[i]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(61))}); err != nil {
		t.Fatal(err)
	}
}
