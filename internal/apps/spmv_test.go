package apps

import (
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// randomTriples builds an nnz×3 COO triples matrix with integer values and
// in-range 0-based coordinates (duplicates allowed — the executors must fold
// them associatively).
func randomTriples(nnz, rows, cols int, seed int64) *dataset.Matrix {
	m := dataset.NewMatrix(nnz, 3)
	r := seed
	for i := 0; i < nnz; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[3*i] = float64(uint64(r) >> 33 % uint64(rows))
		m.Data[3*i+1] = float64(uint64(r) >> 12 % uint64(cols))
		m.Data[3*i+2] = float64(int64(uint64(r)>>45%17) - 8)
	}
	return m
}

func intVector(n int, seed int64) []float64 {
	x := make([]float64, n)
	r := seed
	for i := range x {
		r = r*6364136223846793005 + 1442695040888963407
		x[i] = float64(int64(uint64(r)>>40%9) - 4)
	}
	return x
}

var sparseVersions = []Version{Generated, Opt1, Opt2, Opt3, ManualFR}

// TestPropertySpMVMatchesDensified: across all schedulers, all five sharing
// strategies, 1/2/4/8 threads, and every version, the sparse SpMV executors
// produce results bit-identical to the densified sequential reference —
// integer-valued data makes float accumulation exact, so the comparison is
// ==, not within-epsilon.
func TestPropertySpMVMatchesDensified(t *testing.T) {
	policies := sched.Policies()
	strategies := robj.Strategies()
	threadChoices := []int{1, 2, 4, 8}
	prop := func(seed int64, pick uint16, shape uint16) bool {
		rows := 1 + int(shape)%40
		cols := 1 + int(shape>>6)%30
		nnz := int(shape>>11)%60 + 1
		policy := policies[int(pick)%len(policies)]
		strategy := strategies[int(pick/4)%len(strategies)]
		threads := threadChoices[int(pick/32)%len(threadChoices)]

		data := randomTriples(nnz, rows, cols, seed)
		cfg := SpMVConfig{
			Rows: rows, Cols: cols, X: intVector(cols, seed^0x5ca1ab1e),
			Engine: freeride.Config{
				Threads: threads, Scheduler: policy, Strategy: strategy,
				SplitRows: 1 + nnz/5,
			},
		}
		want, err := SpMVSeq(data, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, v := range sparseVersions {
			got, err := runSpMV(v, data, cfg)
			if err != nil {
				t.Logf("%v: %v", v, err)
				return false
			}
			for i := range want.Y {
				if got.Y[i] != want.Y[i] {
					t.Logf("%v y[%d] = %v, want %v (policy %v, strategy %v, threads %d)",
						v, i, got.Y[i], want.Y[i], policy, strategy, threads)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestSpMVEmptyMatrix: a matrix with no nonzeros yields the zero vector
// (OpAdd's identity in every cell) in every version.
func TestSpMVEmptyMatrix(t *testing.T) {
	data := dataset.NewMatrix(0, 3)
	cfg := SpMVConfig{
		Rows: 4, Cols: 3, X: []float64{1, 2, 3},
		Engine: freeride.Config{Threads: 2, SplitRows: 2},
	}
	for _, v := range append([]Version{Seq}, sparseVersions...) {
		res, err := runSpMV(v, data, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Y) != 4 {
			t.Fatalf("%v: len(Y) = %d, want 4", v, len(res.Y))
		}
		for i, y := range res.Y {
			if y != 0 {
				t.Fatalf("%v: y[%d] = %v, want 0", v, i, y)
			}
		}
	}
}

// TestSpMVSingleRow: a 1×n matrix reduces into a single cell across every
// version, including with more threads than nonzeros.
func TestSpMVSingleRow(t *testing.T) {
	data := dataset.NewMatrix(3, 3)
	copy(data.Data, []float64{
		0, 0, 2,
		0, 2, 3,
		0, 0, 5, // duplicate coordinate folds under addition
	})
	cfg := SpMVConfig{
		Rows: 1, Cols: 3, X: []float64{10, 100, 1000},
		Engine: freeride.Config{Threads: 8, SplitRows: 1},
	}
	const want = (2+5)*10 + 3*1000
	for _, v := range append([]Version{Seq}, sparseVersions...) {
		res, err := runSpMV(v, data, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if len(res.Y) != 1 || res.Y[0] != want {
			t.Fatalf("%v: Y = %v, want [%d]", v, res.Y, want)
		}
	}
}

// TestSpMVRejectsBadShapes covers the app-level validation and the
// translate-time table proofs surfacing through the app API.
func TestSpMVRejectsBadShapes(t *testing.T) {
	if _, err := SpMVSeq(dataset.NewMatrix(0, 3), SpMVConfig{Rows: 2, Cols: 2, X: []float64{1}}); err == nil {
		t.Fatal("short X not rejected")
	}
	// A triple whose row is out of range: the densified reference rejects it
	// directly, the translated versions through the inspector's FRV013.
	bad := dataset.NewMatrix(1, 3)
	copy(bad.Data, []float64{5, 0, 1})
	cfg := SpMVConfig{Rows: 2, Cols: 2, X: []float64{1, 1}, Engine: freeride.Config{Threads: 1}}
	if _, err := SpMVSeq(bad, cfg); err == nil {
		t.Fatal("densified reference accepted out-of-range row")
	}
	if _, err := SpMVTranslated(bad, 1, cfg); err == nil {
		t.Fatal("translated version accepted out-of-range row")
	}
}
