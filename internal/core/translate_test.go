package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// pointsType is the k-means data shape: [1..n] Point{coords: [1..dim] real}.
func pointsType(n, dim int) *chapel.Type {
	pt := chapel.RecordType("Point",
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, dim)})
	return chapel.ArrayType(pt, 1, n)
}

// paddedPointsType puts a real field in front of coords, so the linearized
// rows are dim+1 words apart: contiguous runs, but no dense block.
func paddedPointsType(n, dim int) *chapel.Type {
	pt := chapel.RecordType("PaddedPoint",
		chapel.Field{Name: "pad", Type: chapel.RealType()},
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, dim)})
	return chapel.ArrayType(pt, 1, n)
}

// fillPoints allocates ty (an array of records with a coords field) and
// fills every coords run with small integers.
func fillPoints(ty *chapel.Type, seed int64) *chapel.Array {
	rng := rand.New(rand.NewSource(seed))
	data := chapel.NewArray(ty)
	for i := 1; i <= data.Len(); i++ {
		c := data.At(i).(*chapel.Record).Field("coords").(*chapel.Array)
		for j := 1; j <= c.Len(); j++ {
			c.SetAt(j, &chapel.Real{Val: float64(rng.Intn(1000))})
		}
	}
	return data
}

func makePoints(n, dim int, seed int64) *chapel.Array {
	return fillPoints(pointsType(n, dim), seed)
}

func makeCentroids(k, dim int, seed int64) *chapel.Array {
	return makePoints(k, dim, seed)
}

// kmeansClass builds the translator input mirroring the paper's Fig. 3
// k-means reduction class: per point, find the nearest centroid and update
// the reduction object (per-cluster coordinate sums plus a count).
func kmeansClass(k, dim int, centroids *chapel.Array) *ReductionClass {
	return &ReductionClass{
		Name:   "kmeans",
		Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
		Path:   []string{"coords"},
		HotVars: []HotVar{
			{Value: centroids, Path: []string{"coords"}},
		},
		Kernel: func(elem *Vec, hot []*StateVec, args *freeride.ReductionArgs) {
			cents := hot[0]
			pt := elem.Row(args.Scratch(0, dim))
			rowBuf := args.Scratch(1, dim)
			best, bestDist := 1, math.Inf(1)
			for c := 1; c <= k; c++ {
				cc := cents.Row(c, rowBuf)
				var d float64
				for j := 0; j < dim; j++ {
					diff := pt[j] - cc[j]
					d += diff * diff
				}
				if d < bestDist {
					best, bestDist = c, d
				}
			}
			for j := 0; j < dim; j++ {
				args.Accumulate(best-1, j, elem.At(j))
			}
			args.Accumulate(best-1, dim, 1)
		},
	}
}

// kmeansManual computes the same reduction sequentially on boxed data, as
// the reference.
func kmeansManual(data, centroids *chapel.Array, k, dim int) []float64 {
	out := make([]float64, k*(dim+1))
	for i := 1; i <= data.Len(); i++ {
		coords := data.At(i).(*chapel.Record).Field("coords").(*chapel.Array)
		best, bestDist := 1, math.Inf(1)
		for c := 1; c <= k; c++ {
			cc := centroids.At(c).(*chapel.Record).Field("coords").(*chapel.Array)
			var d float64
			for j := 1; j <= dim; j++ {
				diff := coords.At(j).(*chapel.Real).Val - cc.At(j).(*chapel.Real).Val
				d += diff * diff
			}
			if d < bestDist {
				best, bestDist = c, d
			}
		}
		for j := 1; j <= dim; j++ {
			out[(best-1)*(dim+1)+j-1] += coords.At(j).(*chapel.Real).Val
		}
		out[(best-1)*(dim+1)+dim]++
	}
	return out
}

func TestTranslateAllLevelsMatchReference(t *testing.T) {
	const n, k, dim = 500, 5, 3
	data := makePoints(n, dim, 1)
	centroids := makeCentroids(k, dim, 2)
	want := kmeansManual(data, centroids, k, dim)
	for _, opt := range OptLevels() {
		tr, err := Translate(kmeansClass(k, dim, centroids), data, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		for _, threads := range []int{1, 4} {
			eng := freeride.New(freeride.Config{Threads: threads, SplitRows: 64})
			res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
			if err != nil {
				t.Fatalf("%v/threads=%d: %v", opt, threads, err)
			}
			got := res.Object.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/threads=%d: cell %d = %v, want %v", opt, threads, i, got[i], want[i])
				}
			}
		}
	}
}

func TestOptLevelStrings(t *testing.T) {
	if OptNone.String() != "generated" || Opt1.String() != "opt-1" || Opt2.String() != "opt-2" || Opt3.String() != "opt-3" {
		t.Fatal("opt level strings")
	}
	if OptLevel(9).String() != "opt(9)" {
		t.Fatal("unknown opt level")
	}
	if len(OptLevels()) != 4 {
		t.Fatal("OptLevels")
	}
}

func TestTranslateErrors(t *testing.T) {
	data := makePoints(10, 2, 1)
	cls := kmeansClass(2, 2, makeCentroids(2, 2, 2))
	if _, err := Translate(nil, data, OptNone); err == nil {
		t.Fatal("nil class: want error")
	}
	if _, err := Translate(&ReductionClass{}, data, OptNone); err == nil {
		t.Fatal("nil kernel: want error")
	}
	// Non-all-real dataset.
	intData := chapel.NewArray(chapel.ArrayType(chapel.IntType(), 1, 4))
	if _, err := Translate(cls, intData, OptNone); err == nil {
		t.Fatal("int dataset: want error")
	}
	// Wrong path.
	bad := kmeansClass(2, 2, makeCentroids(2, 2, 2))
	bad.Path = []string{"nope"}
	if _, err := Translate(bad, data, OptNone); err == nil {
		t.Fatal("bad path: want error")
	}
	// Path resolving to 3 levels.
	deep := chapel.ArrayType(chapel.ArrayType(chapel.ArrayType(chapel.RealType(), 1, 2), 1, 2), 1, 2)
	deepData := chapel.NewArray(deep)
	cls2 := &ReductionClass{
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Kernel: func(*Vec, []*StateVec, *freeride.ReductionArgs) {},
	}
	if _, err := Translate(cls2, deepData, OptNone); err == nil {
		t.Fatal("3-level path: want error")
	}
	// Bad hot variable path.
	badHot := kmeansClass(2, 2, makeCentroids(2, 2, 2))
	badHot.HotVars[0].Path = []string{"nope"}
	for _, opt := range OptLevels() {
		if _, err := Translate(badHot, data, opt); err == nil {
			t.Fatalf("%v: bad hot path: want error", opt)
		}
	}
}

func TestHotVarShapes(t *testing.T) {
	// [1..n] real hot variable (e.g. a weight vector) works at every level
	// and is addressed as n×1.
	weights := chapel.RealArray(2, 4, 8)
	data := chapel.RealArray(1, 1, 1, 1)
	cls := &ReductionClass{
		Name:   "weighted-count",
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		HotVars: []HotVar{
			{Value: weights},
		},
		Kernel: func(elem *Vec, hot []*StateVec, args *freeride.ReductionArgs) {
			args.Accumulate(0, 0, elem.At(0)*hot[0].At(1, 2))
		},
	}
	for _, opt := range OptLevels() {
		tr, err := Translate(cls, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		// A flat vector is addressed as one 1×n element.
		if tr.hot[0].Elems() != 1 || tr.hot[0].Width() != 3 {
			t.Fatalf("%v: hot shape %dx%d", opt, tr.hot[0].Elems(), tr.hot[0].Width())
		}
		eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 2})
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Object.Get(0, 0); got != 16 { // 4 elems × weight 4
			t.Fatalf("%v: got %v", opt, got)
		}
	}
	// [1..n][1..m] real hot variable (array of arrays).
	matTy := chapel.ArrayType(chapel.ArrayType(chapel.RealType(), 1, 2), 1, 2)
	mat := chapel.NewArray(matTy)
	mat.At(2).(*chapel.Array).SetAt(2, &chapel.Real{Val: 7})
	cls.HotVars = []HotVar{{Value: mat}}
	cls.Kernel = func(elem *Vec, hot []*StateVec, args *freeride.ReductionArgs) {
		args.Accumulate(0, 0, hot[0].At(2, 2))
	}
	for _, opt := range OptLevels() {
		tr, err := Translate(cls, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		eng := freeride.New(freeride.Config{Threads: 1})
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Object.Get(0, 0); got != 28 { // 4 elems × 7
			t.Fatalf("%v: got %v", opt, got)
		}
	}
	// Record with a field in front of the run: rows are contiguous but the
	// variable is not one dense block, so kernels that ask for Dense fall
	// back to Row/At — which must agree with the boxed access at every level.
	const k, dim = 3, 2
	padded := fillPoints(paddedPointsType(k, dim), 9)
	boxed, err := NewBoxedStateVec(padded, []string{"coords"})
	if err != nil {
		t.Fatal(err)
	}
	word, err := NewWordStateVec(padded, []string{"coords"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := word.Dense(); ok {
		t.Fatal("padded rows must not claim a dense view")
	}
	checkSameAccess(t, "padded", word, boxed, k, dim)

	// Inner stride 2 (an array of two-real records, one field selected):
	// only the linearized form can address it, through the outlined path.
	pair := chapel.RecordType("Pair",
		chapel.Field{Name: "a", Type: chapel.RealType()},
		chapel.Field{Name: "b", Type: chapel.RealType()})
	strided := chapel.NewArray(chapel.ArrayType(chapel.ArrayType(pair, 1, dim), 1, k))
	for i := 1; i <= k; i++ {
		for j := 1; j <= dim; j++ {
			rec := strided.At(i).(*chapel.Array).At(j).(*chapel.Record)
			rec.Fields[0] = &chapel.Real{Val: float64(10*i + j)}
			rec.Fields[1] = &chapel.Real{Val: -1}
		}
	}
	sv, err := NewWordStateVec(strided, []string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sv.Dense(); ok {
		t.Fatal("strided rows must not claim a dense view")
	}
	scratch := make([]float64, dim)
	for i := 1; i <= k; i++ {
		row := sv.Row(i, scratch)
		for j := 1; j <= dim; j++ {
			if want := float64(10*i + j); sv.At(i, j) != want || row[j-1] != want {
				t.Fatalf("strided (%d,%d): At %v Row %v, want %v", i, j, sv.At(i, j), row[j-1], want)
			}
		}
	}
}

// checkSameAccess asserts two views of one k×dim hot variable read the same
// values through At and Row.
func checkSameAccess(t *testing.T, name string, a, b *StateVec, k, dim int) {
	t.Helper()
	sa, sb := make([]float64, dim), make([]float64, dim)
	for i := 1; i <= k; i++ {
		ra, rb := a.Row(i, sa), b.Row(i, sb)
		for j := 1; j <= dim; j++ {
			if a.At(i, j) != b.At(i, j) || ra[j-1] != rb[j-1] || ra[j-1] != a.At(i, j) {
				t.Fatalf("%s (%d,%d): At %v/%v Row %v/%v", name, i, j, a.At(i, j), b.At(i, j), ra[j-1], rb[j-1])
			}
		}
	}
}

func TestRefreshHotVars(t *testing.T) {
	// Opt-2 linearizes hot vars; after mutating the boxed source, results
	// must be stale until RefreshHotVars, then correct.
	weights := chapel.RealArray(1)
	data := chapel.RealArray(1, 1)
	cls := &ReductionClass{
		Object:  freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		HotVars: []HotVar{{Value: weights}},
		Kernel: func(elem *Vec, hot []*StateVec, args *freeride.ReductionArgs) {
			args.Accumulate(0, 0, hot[0].At(1, 1))
		},
	}
	tr, err := Translate(cls, data, Opt2)
	if err != nil {
		t.Fatal(err)
	}
	eng := freeride.New(freeride.Config{Threads: 1})
	run := func() float64 {
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		return res.Object.Get(0, 0)
	}
	if got := run(); got != 2 {
		t.Fatalf("initial = %v", got)
	}
	weights.SetAt(1, &chapel.Real{Val: 10})
	if got := run(); got != 2 {
		t.Fatalf("stale read should still see old words, got %v", got)
	}
	tr.RefreshHotVars()
	if got := run(); got != 20 {
		t.Fatalf("after refresh = %v", got)
	}
	// At boxed levels the access is live; refresh is a no-op but reads see
	// the new value immediately.
	tr1, err := Translate(cls, data, Opt1)
	if err != nil {
		t.Fatal(err)
	}
	weights.SetAt(1, &chapel.Real{Val: 3})
	res, err := eng.RunContext(context.Background(), tr1.Spec(), tr1.Source())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Object.Get(0, 0); got != 6 {
		t.Fatalf("boxed live read = %v", got)
	}
	tr1.RefreshHotVars() // no-op, must not panic
}

// TestTranslateParallelLinearizationOption: TranslateWith takes no worker
// option; its words equal the dataset linearized on any number of workers.
func TestTranslateParallelLinearizationOption(t *testing.T) {
	data := makePoints(200, 4, 3)
	centroids := makeCentroids(3, 4, 4)
	tr, err := TranslateWith(kmeansClass(3, 4, centroids), data, Opt2, TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for workers := 1; workers <= 8; workers++ {
		par, err := LinearizeToWordsParallel(data, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range tr.Words() {
			if tr.Words()[i] != par[i] {
				t.Fatalf("workers=%d: word %d differs", workers, i)
			}
		}
	}
}

// TestStreamingTranslationMatchesEager: words linearized on 1–8 workers
// drive every level's executor to the manual result over 7-row splits, so
// most splits begin at a nonzero row. (The streaming translation this name
// once covered is gone; its gated-source assertion is this one.)
func TestStreamingTranslationMatchesEager(t *testing.T) {
	const n, k, dim = 800, 4, 3
	data := makePoints(n, dim, 9)
	centroids := makeCentroids(k, dim, 10)
	want := kmeansManual(data, centroids, k, dim)
	eng := freeride.New(freeride.Config{Threads: 3, SplitRows: 7})
	defer eng.Close()
	for _, opt := range OptLevels() {
		tr, err := Translate(kmeansClass(k, dim, centroids), data, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			words, err := LinearizeToWordsParallel(data, workers)
			if err != nil {
				t.Fatal(err)
			}
			spec := SpecFromWords(tr.class, words, tr.meta, tr.hot, opt)
			res, err := eng.RunContext(context.Background(), spec, NewWordSource(words, tr.rows, tr.cols))
			if err != nil {
				t.Fatalf("%v/workers=%d: %v", opt, workers, err)
			}
			got := res.Object.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/workers=%d: cell %d = %v, want %v", opt, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestStreamingTranslationSecondPassUnblocked: a translation is complete
// when TranslateWith returns, so a second pass over it reads the same
// words and folds the same bits as the first.
func TestStreamingTranslationSecondPassUnblocked(t *testing.T) {
	data := makePoints(300, 2, 11)
	centroids := makeCentroids(2, 2, 12)
	tr, err := TranslateWith(kmeansClass(2, 2, centroids), data, Opt2, TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 32})
	defer eng.Close()
	var passes [2][]float64
	for p := range passes {
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		passes[p] = append([]float64(nil), res.Object.Snapshot()...)
	}
	for i := range passes[0] {
		if passes[0][i] != passes[1][i] {
			t.Fatalf("cell %d: pass 1 %v, pass 2 %v", i, passes[0][i], passes[1][i])
		}
	}
}

// TestStreamingTranslationErrors: the one translate path refuses a nil
// class and an unresolvable path before linearizing anything.
func TestStreamingTranslationErrors(t *testing.T) {
	data := makePoints(10, 2, 13)
	if _, err := TranslateWith(nil, data, OptNone, TranslateOptions{}); err == nil {
		t.Fatal("nil class: want error")
	}
	cls := kmeansClass(2, 2, makeCentroids(2, 2, 14))
	bad := *cls
	bad.Path = []string{"nope"}
	if _, err := TranslateWith(&bad, data, OptNone, TranslateOptions{}); err == nil {
		t.Fatal("bad path: want error")
	}
	tr, err := TranslateWith(cls, data, Opt1, TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Words()) != 20 {
		t.Fatalf("words = %d", len(tr.Words()))
	}
}

func TestWordSource(t *testing.T) {
	words := []float64{1, 2, 3, 4, 5, 6}
	s := NewWordSource(words, 3, 2)
	if s.NumRows() != 3 || s.Cols() != 2 {
		t.Fatal("shape")
	}
	dst := make([]float64, 4)
	if err := s.ReadRows(1, 3, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 || dst[3] != 6 {
		t.Fatalf("dst = %v", dst)
	}
	if err := s.ReadRows(-1, 1, dst); err == nil {
		t.Fatal("bad range: want error")
	}
	if err := s.ReadRows(0, 3, make([]float64, 2)); err == nil {
		t.Fatal("short dst: want error")
	}
	if rows := s.Rows(1, 2); &rows[0] != &words[2] {
		t.Fatal("Rows should alias")
	}
	mustPanic(t, "bad shape", func() { NewWordSource(words, 2, 2) })
}

func TestTranslationAccessors(t *testing.T) {
	data := makePoints(10, 2, 5)
	tr, err := Translate(kmeansClass(2, 2, makeCentroids(2, 2, 6)), data, Opt1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Words()) != 20 {
		t.Fatalf("words len %d", len(tr.Words()))
	}
	if tr.Meta().Levels != 2 || !tr.Meta().wordUnits {
		t.Fatal("meta accessor")
	}
	if tr.LinearizeTime < 0 {
		t.Fatal("linearize time")
	}
}

// Property: every optimization level — generated, opt-1, opt-2 per element,
// opt-3 fused — produces the reference reduction object bit for bit, for
// random k-means inputs under a random scheduler × sharing strategy × 1/2/3
// threads, with the centroids either dense or padded (the Row fallback) and
// splits short enough that all but the first start at a non-zero Begin
// (integer coordinates keep float arithmetic exact).
func TestPropertyOptLevelsEquivalent(t *testing.T) {
	policies := sched.Policies()
	f := func(seed int64, nRaw, kRaw, dimRaw, pick uint8) bool {
		n := int(nRaw%100) + 10
		k := int(kRaw%5) + 1
		dim := int(dimRaw%4) + 1
		cfg := freeride.Config{
			Threads:   int(pick%3) + 1,
			SplitRows: 7,
			Scheduler: policies[int(pick/3)%len(policies)],
			Strategy:  robj.Strategies()[int(pick/12)%len(robj.Strategies())],
		}
		data := makePoints(n, dim, seed)
		centroids := makeCentroids(k, dim, seed+1)
		if pick >= 128 {
			centroids = fillPoints(paddedPointsType(k, dim), seed+1)
		}
		want := kmeansManual(data, centroids, k, dim)
		for _, opt := range OptLevels() {
			tr, err := Translate(withBlockKernel(kmeansClass(k, dim, centroids), k, dim), data, opt)
			if err != nil {
				t.Log(err)
				return false
			}
			eng := freeride.New(cfg)
			res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
			eng.Close()
			if err != nil {
				t.Log(err)
				return false
			}
			got := res.Object.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Logf("%v %+v: cell %d = %v, want %v", opt, cfg, i, got[i], want[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(41))}); err != nil {
		t.Fatal(err)
	}
}
