package chapelfreeride

import (
	"context"
	"math"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
)

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// comment advertises: engine construction, a sum reduction, the Chapel
// reduction driver, the translator, and a translated application run.
func TestFacadeEndToEnd(t *testing.T) {
	// Direct FREERIDE use.
	m := dataset.UniformMatrix(1000, 2, 1, 0, 1)
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
	if got := Reduce(NewSumOp(), ChapelOver(arr), 2); got.(*ChapelReal).Val != 14 {
		t.Fatalf("chapel sum = %v", got)
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
	points, _ := dataset.GaussianMixture(200, 3, 4, 2)
	init := NewMatrix(4, 3)
	copy(init.Data, points.Data[:12])
	out, err := apps.KMeansTranslated(BoxPoints(points), init, core.Opt2, apps.KMeansConfig{
		K: 4, Iterations: 2, Engine: EngineConfig{Threads: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Centroids.Rows != 4 {
		t.Fatal("kmeans output shape")
	}
}
