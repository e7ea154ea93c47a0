package chapelfreeride

import (
	"context"
	"math"
	"testing"

	"chapelfreeride/internal/mapreduce"
)

// mapReduceCountSpec counts rows per integer key in column 0.
func mapReduceCountSpec() mapreduce.Spec[int, float64] {
	return mapreduce.Spec[int, float64]{
		Map: func(a *mapreduce.MapArgs, emit func(int, float64)) error {
			for i := 0; i < a.NumRows; i++ {
				emit(int(a.Row(i)[0]), 1)
			}
			return nil
		},
		Reduce: func(_ int, vals []float64) float64 {
			var s float64
			for _, v := range vals {
				s += v
			}
			return s
		},
	}
}

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// comment advertises: engine construction, a sum reduction, the Chapel
// reduction driver, and the translator.
func TestFacadeEndToEnd(t *testing.T) {
	// Direct FREERIDE use.
	m := UniformMatrix(1000, 2, 1, 0, 1)
	eng := NewEngine(EngineConfig{Threads: 4, SplitRows: 64})
	spec := Spec{
		Object: ObjectSpec{Groups: 1, Elems: 1, Op: OpAdd},
		Reduction: func(args *ReductionArgs) error {
			var s float64
			for _, v := range args.Data {
				s += v
			}
			args.Accumulate(0, 0, s)
			return nil
		},
	}
	res, err := eng.RunContext(context.Background(), spec, NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range m.Data {
		want += v
	}
	if math.Abs(res.Object.Get(0, 0)-want) > 1e-6 {
		t.Fatalf("facade sum = %v, want %v", res.Object.Get(0, 0), want)
	}

	// Chapel-side reduction.
	arr := RealArray(3, 1, 4, 1, 5)
	if got := Reduce(NewMaxOp(), ChapelOver(arr), 2); got.(*ChapelReal).Val != 5 {
		t.Fatalf("chapel max = %v", got)
	}

	// Translator round trip.
	buf := Linearize(arr)
	back, err := Delinearize(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.(*ChapelArray).Len() != 5 {
		t.Fatal("delinearize length")
	}

	// Application layer.
	points, _ := GaussianMixture(200, 3, 4, 2)
	init := NewMatrix(4, 3)
	copy(init.Data, points.Data[:12])
	out, err := KMeans(VersionOpt2, points, init, KMeansConfig{
		K: 4, Iterations: 2, Engine: EngineConfig{Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Centroids.Rows != 4 {
		t.Fatal("kmeans output shape")
	}
}

func TestFacadeConstantsDistinct(t *testing.T) {
	if OptNone == Opt1 || Opt1 == Opt2 {
		t.Fatal("opt levels must be distinct")
	}
	strategies := []RObjStrategy{FullReplication, FullLocking, OptimizedFullLocking, FixedLocking, AtomicCAS}
	seen := map[RObjStrategy]bool{}
	for _, s := range strategies {
		if seen[s] {
			t.Fatal("duplicate strategy constant")
		}
		seen[s] = true
	}
	if VersionGenerated == VersionOpt2 || VersionManualFR == VersionMapReduce {
		t.Fatal("version constants must be distinct")
	}
}

func TestFacadeMapReduce(t *testing.T) {
	m := NewMatrix(100, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % 4)
	}
	eng := NewMapReduce(MapReduceConfig{Workers: 2})
	out, _, err := eng.Run(mapReduceCountSpec(), NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		if out[k] != 25 {
			t.Fatalf("bucket %d = %v", k, out[k])
		}
	}
}
