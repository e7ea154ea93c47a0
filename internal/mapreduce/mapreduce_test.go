package mapreduce

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
)

// histogramSpec counts rows per integer bucket (column 0).
func histogramSpec(combine bool) Spec[int, float64] {
	s := Spec[int, float64]{
		Map: func(a *MapArgs, emit func(int, float64)) error {
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
	if combine {
		s.Combine = s.Reduce
	}
	return s
}

func bucketMatrix(n, buckets int) *dataset.Matrix {
	m := dataset.NewMatrix(n, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % buckets)
	}
	return m
}

func TestHistogram(t *testing.T) {
	m := bucketMatrix(1000, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		e := New[int, float64](Config{Workers: workers, SplitRows: 64})
		out, stats, err := e.Run(histogramSpec(false), dataset.NewMemorySource(m))
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 10 {
			t.Fatalf("workers=%d: %d keys", workers, len(out))
		}
		for k, v := range out {
			if v != 100 {
				t.Fatalf("workers=%d: bucket %d = %v", workers, k, v)
			}
		}
		if stats.EmittedPairs != 1000 || stats.IntermediatePairs != 1000 || stats.Keys != 10 {
			t.Fatalf("stats = %+v", stats)
		}
	}
}

func TestCombinerShrinksIntermediatePairs(t *testing.T) {
	m := bucketMatrix(10000, 5)
	e := New[int, float64](Config{Workers: 4, SplitRows: 128})
	out, stats, err := e.Run(histogramSpec(true), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if v != 2000 {
			t.Fatalf("bucket %d = %v", k, v)
		}
	}
	if stats.EmittedPairs != 10000 {
		t.Fatalf("emitted = %d", stats.EmittedPairs)
	}
	// With a combiner each worker contributes at most 5 pairs.
	if stats.IntermediatePairs > 4*5 {
		t.Fatalf("intermediate pairs = %d, want ≤ 20", stats.IntermediatePairs)
	}
}

func TestSumByStringlikeKeyOrdering(t *testing.T) {
	// Keys with holes; check grouping handles non-dense keys.
	m := dataset.NewMatrix(300, 2)
	for i := 0; i < 300; i++ {
		m.Set(i, 0, float64((i%3)*100)) // keys 0, 100, 200
		m.Set(i, 1, float64(i))
	}
	spec := Spec[int, float64]{
		Map: func(a *MapArgs, emit func(int, float64)) error {
			for i := 0; i < a.NumRows; i++ {
				emit(int(a.Row(i)[0]), a.Row(i)[1])
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
	e := New[int, float64](Config{Workers: 3, SplitRows: 17})
	out, _, err := e.Run(spec, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]float64{0: 0, 100: 0, 200: 0}
	for i := 0; i < 300; i++ {
		want[(i%3)*100] += float64(i)
	}
	for k, v := range want {
		if out[k] != v {
			t.Fatalf("key %d: got %v want %v", k, out[k], v)
		}
	}
}

func TestRunErrors(t *testing.T) {
	src := dataset.NewMemorySource(bucketMatrix(10, 2))
	e := New[int, float64](Config{})
	if _, _, err := e.Run(Spec[int, float64]{}, src); err == nil {
		t.Fatal("missing map/reduce: want error")
	}
	if _, _, err := e.Run(histogramSpec(false), nil); err == nil {
		t.Fatal("nil source: want error")
	}
	boom := errors.New("boom")
	spec := histogramSpec(false)
	spec.Map = func(a *MapArgs, emit func(int, float64)) error { return boom }
	if _, _, err := e.Run(spec, src); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	e := New[int, float64](Config{Workers: 4})
	out, stats, err := e.Run(histogramSpec(false), dataset.NewMemorySource(dataset.NewMatrix(0, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.Keys != 0 {
		t.Fatalf("out=%v stats=%+v", out, stats)
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{MapTime: 1, SortTime: 2, ReduceTime: 4}
	if s.Total() != 7 {
		t.Fatalf("Total = %v", s.Total())
	}
}

func TestFloat64Keys(t *testing.T) {
	// Generic over any ordered key type, including float64.
	m := dataset.NewMatrix(10, 1)
	for i := range m.Data {
		m.Data[i] = 0.5 * float64(i%2)
	}
	e := New[float64, int](Config{Workers: 2, SplitRows: 3})
	spec := Spec[float64, int]{
		Map: func(a *MapArgs, emit func(float64, int)) error {
			for i := 0; i < a.NumRows; i++ {
				emit(a.Row(i)[0], 1)
			}
			return nil
		},
		Reduce: func(_ float64, vals []int) int { return len(vals) },
	}
	out, _, err := e.Run(spec, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 || out[0.5] != 5 {
		t.Fatalf("out = %v", out)
	}
}

// Property: result is independent of worker count and split size, and the
// combiner never changes the answer (sum is associative/commutative and the
// data is integral, so float addition is exact).
func TestPropertyDeterminism(t *testing.T) {
	f := func(seed int64, rowsRaw uint16, workersRaw, splitRaw uint8, useCombiner bool) bool {
		rows := int(rowsRaw%1500) + 1
		workers := int(workersRaw%8) + 1
		splitRows := int(splitRaw%100) + 1
		rng := rand.New(rand.NewSource(seed))
		m := dataset.NewMatrix(rows, 1)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(7))
		}
		want := map[int]float64{}
		for _, v := range m.Data {
			want[int(v)]++
		}
		e := New[int, float64](Config{Workers: workers, SplitRows: splitRows})
		out, _, err := e.Run(histogramSpec(useCombiner), dataset.NewMemorySource(m))
		if err != nil {
			return false
		}
		if len(out) != len(want) {
			return false
		}
		for k, v := range want {
			if math.Abs(out[k]-v) > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelSortPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 100, parallelSortThreshold + 777} {
		for _, workers := range []int{1, 2, 3, 8} {
			pairs := make([]Pair[int, int], n)
			for i := range pairs {
				pairs[i] = Pair[int, int]{Key: rng.Intn(50), Value: i}
			}
			parallelSortPairs(pairs, workers)
			for i := 1; i < len(pairs); i++ {
				if pairs[i].Key < pairs[i-1].Key {
					t.Fatalf("n=%d workers=%d: not sorted at %d", n, workers, i)
				}
			}
			// Every original value survives (it is a permutation).
			seen := make([]bool, n)
			for _, p := range pairs {
				if seen[p.Value] {
					t.Fatalf("n=%d workers=%d: duplicate value %d", n, workers, p.Value)
				}
				seen[p.Value] = true
			}
		}
	}
}

func TestLargeJobUsesParallelSort(t *testing.T) {
	// Enough pairs to cross the parallel-sort threshold; results must be
	// identical to the known histogram.
	n := parallelSortThreshold * 2
	m := bucketMatrix(n, 13)
	e := New[int, float64](Config{Workers: 4, SplitRows: 512})
	out, stats, err := e.Run(histogramSpec(false), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	if stats.IntermediatePairs != n {
		t.Fatalf("intermediate pairs = %d", stats.IntermediatePairs)
	}
	for k := 0; k < 13; k++ {
		want := float64(n / 13)
		if float64(n%13) > float64(k) {
			want++
		}
		if out[k] != want {
			t.Fatalf("bucket %d = %v, want %v", k, out[k], want)
		}
	}
}
