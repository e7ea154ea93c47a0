package apps

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// intPoints builds an n×dim matrix of small integer-valued floats so that
// all-version comparisons are exact (float addition on small integers is
// associative in effect).
func intPoints(n, dim int, seed int64) *dataset.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := dataset.NewMatrix(n, dim)
	for i := range m.Data {
		m.Data[i] = float64(rng.Intn(1000))
	}
	return m
}

// initCentroids picks the first k points, the usual deterministic seeding.
func initCentroids(points *dataset.Matrix, k int) *dataset.Matrix {
	c := dataset.NewMatrix(k, points.Cols)
	copy(c.Data, points.Data[:k*points.Cols])
	return c
}

func allKMeansVersions() []Version {
	return []Version{Seq, ChapelNative, Generated, Opt1, Opt2, Opt3, ManualFR, MapReduce}
}

func TestKMeansAllVersionsAgree(t *testing.T) {
	const n, k, dim, iters = 400, 5, 3, 4
	points := intPoints(n, dim, 1)
	init := initCentroids(points, k)
	cfg := KMeansConfig{K: k, Iterations: iters, Engine: freeride.Config{Threads: 4, SplitRows: 64}}
	ref, err := KMeansSeq(points, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range allKMeansVersions() {
		got, err := runKMeans(v, points, init, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Centroids.Equal(ref.Centroids) {
			t.Fatalf("%v: centroids diverge from sequential", v)
		}
		for c := range ref.Counts {
			if got.Counts[c] != ref.Counts[c] {
				t.Fatalf("%v: counts diverge: %v vs %v", v, got.Counts, ref.Counts)
			}
		}
	}
}

func TestKMeansMapReduceCombinerEquivalent(t *testing.T) {
	points := intPoints(300, 2, 2)
	init := initCentroids(points, 3)
	base := KMeansConfig{K: 3, Iterations: 3, Engine: freeride.Config{Threads: 4, SplitRows: 32}}
	withoutC, err := KMeansMapReduce(points, init, base)
	if err != nil {
		t.Fatal(err)
	}
	withCfg := base
	withCfg.UseCombiner = true
	withC, err := KMeansMapReduce(points, init, withCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !withC.Centroids.Equal(withoutC.Centroids) {
		t.Fatal("combiner changed the k-means result")
	}
}

func TestKMeansThreadInvariance(t *testing.T) {
	points := intPoints(500, 4, 3)
	init := initCentroids(points, 4)
	var ref *dataset.Matrix
	for _, threads := range []int{1, 2, 4, 8} {
		cfg := KMeansConfig{K: 4, Iterations: 3, Engine: freeride.Config{Threads: threads, SplitRows: 50}}
		res, err := KMeansTranslated(BoxPoints(points), init, 2, cfg) // Opt2
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res.Centroids
			continue
		}
		if !res.Centroids.Equal(ref) {
			t.Fatalf("threads=%d: result depends on thread count", threads)
		}
	}
}

func TestKMeansEmptyClusterKeepsCentroid(t *testing.T) {
	// Two coincident far points and a centroid no point will choose.
	points := dataset.NewMatrix(2, 1)
	points.Set(0, 0, 100)
	points.Set(1, 0, 100)
	init := dataset.NewMatrix(2, 1)
	init.Set(0, 0, 100) // wins every point
	init.Set(1, 0, -100)
	cfg := KMeansConfig{K: 2, Iterations: 2, Engine: freeride.Config{Threads: 2}}
	res, err := KMeansSeq(points, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.At(1, 0) != -100 {
		t.Fatalf("empty cluster centroid moved: %v", res.Centroids.At(1, 0))
	}
	if res.Counts[0] != 2 || res.Counts[1] != 0 {
		t.Fatalf("counts = %v", res.Counts)
	}
	// Parallel versions preserve the same behaviour.
	fr, err := KMeansManualFR(points, init, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Centroids.Equal(res.Centroids) {
		t.Fatal("manual FR diverges on empty cluster")
	}
}

func TestKMeansValidation(t *testing.T) {
	points := intPoints(10, 2, 4)
	init := initCentroids(points, 2)
	if _, err := KMeansSeq(points, init, KMeansConfig{K: 0, Iterations: 1}); err == nil {
		t.Fatal("K=0: want error")
	}
	if _, err := KMeansSeq(points, init, KMeansConfig{K: 2, Iterations: 0}); err == nil {
		t.Fatal("Iterations=0: want error")
	}
}

func TestVersionStrings(t *testing.T) {
	want := map[Version]string{
		Seq: "sequential", ChapelNative: "chapel-native", Generated: "generated",
		Opt1: "opt-1", Opt2: "opt-2", Opt3: "opt-3", ManualFR: "manual FR", MapReduce: "map-reduce",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("version %d = %q, want %q", int(v), v.String(), s)
		}
	}
	if Version(42).String() != "version(42)" {
		t.Error("unknown version string")
	}
}

func TestTimingTotal(t *testing.T) {
	tm := Timing{Linearize: 1, HotVar: 2, Reduce: 3, Update: 4}
	if tm.Total() != 10 {
		t.Fatalf("Total = %v", tm.Total())
	}
}

func TestKMeansTimingPopulated(t *testing.T) {
	points := intPoints(200, 3, 5)
	init := initCentroids(points, 3)
	cfg := KMeansConfig{K: 3, Iterations: 2, Engine: freeride.Config{Threads: 2, SplitRows: 32}}
	res, err := KMeansTranslated(BoxPoints(points), init, 2, cfg) // Opt2
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing.Linearize <= 0 {
		t.Fatal("translated version must report linearization time")
	}
	if res.Timing.Reduce <= 0 {
		t.Fatal("reduce time missing")
	}
	if res.Timing.Total() < res.Timing.Reduce {
		t.Fatal("total must include all phases")
	}
}

func TestBoxUnboxRoundTrip(t *testing.T) {
	m := intPoints(7, 3, 6)
	if got, err := unboxMatrix(BoxPoints(m), "coords"); err != nil || !got.Equal(m) {
		t.Fatalf("BoxPoints/UnboxMatrix round trip: %v", err)
	}
	if got, err := unboxMatrix(BoxMatrix(m), ""); err != nil || !got.Equal(m) {
		t.Fatalf("BoxMatrix/UnboxMatrix round trip: %v", err)
	}
	empty, err := unboxMatrix(BoxMatrix(dataset.NewMatrix(0, 3)), "")
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows != 0 {
		t.Fatal("empty unbox")
	}
	if _, err := unboxMatrix(chapel.RealArray(1, 2, 3), ""); err == nil {
		t.Fatal("UnboxMatrix over a flat real array must error, not panic")
	}
	v := BoxVector([]float64{1, 2, 3})
	if v.Len() != 3 || v.At(2).(*chapel.Real).Val != 2 {
		t.Fatal("BoxVector")
	}
}

// Property: generated ≡ opt-1 ≡ opt-2 ≡ opt-3 ≡ manual FREERIDE, bit for
// bit, across schedulers × sharing strategies × 1/2/3 threads, for k-means,
// PCA and EM. This is the invariant every binding decision of the translated
// executor must defend — which access path a level takes, whether
// accumulation is batched into worker-local buffers — none of it may change
// a single bit of the result under any execution configuration. Integer
// inputs keep k-means' float addition exact; PCA additionally gets a
// power-of-two row count, so the mean and every centered product are exact
// too. EM's responsibilities are not exact, so its sums depend on the order
// splits are folded in: the translated levels are compared bit for bit on
// one thread (one order) and to 1e-9 of manual FREERIDE otherwise.
func TestPropertyFusedKMeansMatchesOpt2AndManual(t *testing.T) {
	policies := sched.Policies()
	f := func(seed int64, pick uint8, nRaw, thrRaw uint8) bool {
		n := int(nRaw%150) + 20
		engine := freeride.Config{
			Threads:   int(thrRaw%3) + 1,
			SplitRows: 16,
			Scheduler: policies[int(pick)%len(policies)],
			Strategy:  robj.Strategies()[int(pick/8)%len(robj.Strategies())],
		}
		fail := func(app string, v Version, err error) bool {
			t.Logf("%s: %v diverges from opt-3 (%+v, n %d): %v", app, v, engine, n, err)
			return false
		}
		const k = 3
		points := intPoints(n, 2, seed)
		init := initCentroids(points, k)
		cfg := KMeansConfig{K: k, Iterations: 2, Engine: engine}
		fused, err := runKMeans(Opt3, points, init, cfg)
		if err != nil {
			return fail("kmeans", Opt3, err)
		}
		for _, v := range []Version{Generated, Opt1, Opt2, ManualFR} {
			ref, err := runKMeans(v, points, init, cfg)
			if err != nil || !fused.Centroids.Equal(ref.Centroids) || !slices.Equal(fused.Counts, ref.Counts) {
				return fail("kmeans", v, err)
			}
		}

		square := intPoints(64<<(nRaw%3), 3, seed)
		pcaCfg := PCAConfig{Engine: engine}
		pcaFused, err := runPCA(Opt3, square, pcaCfg)
		if err != nil {
			return fail("pca", Opt3, err)
		}
		for _, v := range []Version{Generated, Opt1, Opt2, ManualFR} {
			ref, err := runPCA(v, square, pcaCfg)
			if err != nil || !slices.Equal(pcaFused.Mean, ref.Mean) || !pcaFused.Cov.Equal(ref.Cov) {
				return fail("pca", v, err)
			}
		}

		emCfg := EMConfig{K: k, Iterations: 2, Engine: engine}
		manual, err := runEM(ManualFR, points, init, emCfg)
		if err != nil {
			return fail("em", ManualFR, err)
		}
		var first *EMResult
		for _, v := range []Version{Generated, Opt1, Opt2} {
			got, err := runEM(v, points, init, emCfg)
			if err != nil {
				return fail("em", v, err)
			}
			emClose(t, v.String(), got, manual, 1e-9)
			if first == nil {
				first = got
			}
			if engine.Threads == 1 && !(got.Means.Equal(first.Means) &&
				slices.Equal(got.Variances, first.Variances) && slices.Equal(got.Weights, first.Weights)) {
				return fail("em", v, nil)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(52))}); err != nil {
		t.Fatal(err)
	}
}

// paddedPoints boxes m as [1..n] record{pad: real; coords: [1..dim] real}:
// the same values BoxPoints carries, in a layout whose linearized rows are
// dim+1 words apart, so the variable has contiguous rows but no dense view.
func paddedPoints(m *dataset.Matrix) *chapel.Array {
	ty := chapel.ArrayType(chapel.RecordType("PaddedPoint",
		chapel.Field{Name: "pad", Type: chapel.RealType()},
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, m.Cols)}), 1, m.Rows)
	arr := chapel.NewArray(ty)
	for i := 0; i < m.Rows; i++ {
		coords := arr.At(i + 1).(*chapel.Record).Field("coords").(*chapel.Array)
		for j := 0; j < m.Cols; j++ {
			coords.SetAt(j+1, &chapel.Real{Val: m.At(i, j)})
		}
	}
	return arr
}

// TestNonDenseHotVariableFallback: when the hot variable's linearized layout
// is not one dense block, the k-means and EM kernels take their Row-based
// fallbacks (opt-2 per element, opt-3 once per split) — and one pass still
// produces, at every level, exactly the reduction object the dense layout
// gives.
func TestNonDenseHotVariableFallback(t *testing.T) {
	const n, k, dim = 200, 4, 3
	points := intPoints(n, dim, 3)
	cents := initCentroids(points, k)
	boxed := BoxPoints(points)
	vars := []float64{1, 2, 3, 4}
	eng := freeride.New(freeride.Config{Threads: 1, SplitRows: 32})
	defer eng.Close()
	onePass := func(cls *core.ReductionClass, opt core.OptLevel) []float64 {
		t.Helper()
		tr, err := core.Translate(cls, boxed, opt)
		if err != nil {
			t.Fatalf("%s %v: %v", cls.Name, opt, err)
		}
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatalf("%s %v: %v", cls.Name, opt, err)
		}
		out := append([]float64(nil), res.Object.Snapshot()...)
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sv, err := core.NewWordStateVec(paddedPoints(cents), []string{"coords"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sv.Dense(); ok {
		t.Fatal("padded centroids must not have a dense view")
	}
	classes := map[string]func(hot *chapel.Array) *core.ReductionClass{
		"kmeans": func(hot *chapel.Array) *core.ReductionClass { return KMeansClass(k, dim, hot) },
		"em":     func(hot *chapel.Array) *core.ReductionClass { return EMClass(k, dim, hot, BoxVector(vars)) },
	}
	for name, class := range classes {
		want := onePass(class(BoxPoints(cents)), core.Opt2)
		for _, opt := range core.OptLevels() {
			if got := onePass(class(paddedPoints(cents)), opt); !slices.Equal(got, want) {
				t.Fatalf("%s %v: padded hot variable changes the reduction object", name, opt)
			}
		}
	}
}

// Property: every version matches the sequential reference for random
// integer inputs across random thread counts.
func TestPropertyKMeansVersionsMatchSeq(t *testing.T) {
	versions := []Version{ChapelNative, Generated, Opt1, Opt2, Opt3, ManualFR, MapReduce}
	f := func(seed int64, nRaw, kRaw, thrRaw uint8) bool {
		n := int(nRaw%150) + 20
		k := int(kRaw%4) + 1
		threads := int(thrRaw%4) + 1
		points := intPoints(n, 2, seed)
		init := initCentroids(points, k)
		cfg := KMeansConfig{K: k, Iterations: 2, Engine: freeride.Config{Threads: threads, SplitRows: 16}}
		ref, err := KMeansSeq(points, init, cfg)
		if err != nil {
			return false
		}
		v := versions[int(uint64(seed)%uint64(len(versions)))]
		got, err := runKMeans(v, points, init, cfg)
		if err != nil {
			return false
		}
		return got.Centroids.Equal(ref.Centroids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Fatal(err)
	}
}

func TestKMeansClusterMatchesSingleNode(t *testing.T) {
	points := intPoints(600, 3, 8)
	init := initCentroids(points, 4)
	ref, err := KMeansSeq(points, init, KMeansConfig{K: 4, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []cluster.Transport{cluster.InProcess, cluster.TCP} {
		for _, nodes := range []int{1, 2, 5} {
			res, err := KMeansCluster(points, init, KMeansClusterConfig{
				K: 4, Iterations: 3, Nodes: nodes,
				PerNode:   freeride.Config{Threads: 2, SplitRows: 32},
				Transport: transport,
				Combine:   cluster.Tree,
			})
			if err != nil {
				t.Fatalf("%v/nodes=%d: %v", transport, nodes, err)
			}
			if !res.Centroids.Equal(ref.Centroids) {
				t.Fatalf("%v/nodes=%d: centroids diverge", transport, nodes)
			}
			if transport == cluster.TCP && nodes > 1 && res.BytesMoved == 0 {
				t.Fatal("TCP moved no bytes")
			}
		}
	}
	if _, err := KMeansCluster(points, init, KMeansClusterConfig{K: 0, Iterations: 1}); err == nil {
		t.Fatal("K=0: want error")
	}
}

// unboxMatrix converts a boxed [1..n] record{field: [1..m] real} or
// [1..n][1..m] real structure back into a matrix. The element shape comes
// from the caller, so a mismatch is reported as an error rather than a
// panic.
func unboxMatrix(a *chapel.Array, field string) (*dataset.Matrix, error) {
	n := a.Len()
	if n == 0 {
		return dataset.NewMatrix(0, 0), nil
	}
	first := a.At(a.Ty.Lo)
	var width int
	switch e := first.(type) {
	case *chapel.Record:
		width = e.Field(field).(*chapel.Array).Len()
	case *chapel.Array:
		width = e.Len()
	default:
		return nil, fmt.Errorf("apps: unboxMatrix over %s: element is neither a record nor an array", a.Ty)
	}
	m := dataset.NewMatrix(n, width)
	for i := 0; i < n; i++ {
		var inner *chapel.Array
		switch e := a.At(a.Ty.Lo + i).(type) {
		case *chapel.Record:
			inner = e.Field(field).(*chapel.Array)
		case *chapel.Array:
			inner = e
		}
		for j := 0; j < width; j++ {
			m.Set(i, j, inner.At(inner.Ty.Lo+j).(*chapel.Real).Val)
		}
	}
	return m, nil
}
