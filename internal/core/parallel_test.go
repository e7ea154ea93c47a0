package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"chapelfreeride/internal/chapel"
)

// TestForRangesCoversInOrder: forRanges calls f once per worker with
// contiguous, ascending ranges that cover [0, n) and differ in size by at
// most one, for more workers than items too.
func TestForRangesCoversInOrder(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100} {
		for workers := 1; workers <= 8; workers++ {
			var mu sync.Mutex
			got := make([][2]int, workers)
			calls := 0
			forRanges(n, workers, func(w, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				got[w] = [2]int{lo, hi}
				calls++
			})
			if calls != workers {
				t.Fatalf("n=%d workers=%d: %d calls", n, workers, calls)
			}
			next := 0
			for w, r := range got {
				if r[0] != next || r[1] < r[0] || r[1]-r[0] > n/workers+1 {
					t.Fatalf("n=%d workers=%d: range %d is %v after %d", n, workers, w, r, next)
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("n=%d workers=%d: ranges end at %d", n, workers, next)
			}
		}
	}
}

// TestStageWorkers pins the default widths: one worker per grain of items
// up to GOMAXPROCS, and an inspector that drops workers while their extra
// histograms would outnumber the entries.
func TestStageWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ n, want int }{
		{0, 1}, {grain - 1, 1}, {grain, 1}, {2 * grain, min(2, procs)}, {64 * grain, min(64, procs)},
	} {
		if got := stageWorkers(c.n); got != c.want {
			t.Fatalf("stageWorkers(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for _, c := range []struct{ nnz, rows, want int }{
		{4 * grain, 0, min(4, procs)},
		{4 * grain, grain, min(4, procs)},
		{4 * grain, 2 * grain, min(3, procs)},
		{4 * grain, 4*grain + 1, 1},
	} {
		if got := inspectorWorkers(c.nnz, c.rows); got != c.want {
			t.Fatalf("inspectorWorkers(%d, %d) = %d, want %d", c.nnz, c.rows, got, c.want)
		}
	}
}

// stageFixture is a boxed COO source with duplicate entries, empty rows
// (every third row gets none) and one row longer than insertionRowMax, so
// the radix column pass runs too.
func stageFixture(rng *rand.Rand, rows, cols, nnz int) [][3]float64 {
	entries := make([][3]float64, nnz)
	for e := range entries {
		r := 3 * rng.Intn((rows+2)/3)
		if e%5 == 0 {
			r = 1 // the long row
		}
		entries[e] = [3]float64{float64(r + 1), float64(rng.Intn(cols) + 1), float64(e)}
	}
	copy(entries[nnz/2:], entries[:8]) // exact duplicates, in both halves
	return entries
}

// TestParallelStagesMatchOneWorker is the determinism test of every
// translate-time stage that splits its work: LinearizeCOO, the inspector's
// counting sort, the sparse hot refresh and dense linearization give ==
// output on 1–8 workers, and the same error text when the source is bad.
// Its last part runs the GOMAXPROCS-derived defaults on inputs above four
// grains; run it with -cpu 1,2,4 to cover 1, 2 and 4 workers.
func TestParallelStagesMatchOneWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	const rows, cols, nnz = 300, 50, 2000
	entries := stageFixture(rng, rows, cols, nnz)
	boxed := boxCOO(entries)
	coo1, err := linearizeCOO(boxed, rows, cols, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan1, err := newInspectorPlan(coo1, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A fractional column at entry 1500, then entry 700 fractional in both
	// coordinates: one worker reports entry 700's r, and so must eight.
	fractional := slices.Clone(entries)
	fractional[1500][1] += 0.5
	fractional[700][0] += 0.25
	fractional[700][1] += 0.5
	badCOO := boxCOO(fractional)
	_, fracErr1 := linearizeCOO(badCOO, rows, cols, 1)

	// Two rows past the matrix: the refusal names the lower entry.
	oob := &SparseCOO{Rows: rows, Cols: cols, R: slices.Clone(coo1.R), C: coo1.C, V: coo1.V}
	oob.R[1900], oob.R[1200] = rows, -1
	_, oobErr1 := newInspectorPlan(oob, 1)
	if fracErr1 == nil || oobErr1 == nil {
		t.Fatalf("bad sources accepted: %v, %v", fracErr1, oobErr1)
	}

	x := chapel.RealArray(make([]float64, cols)...)
	tr, err := TranslateSparse(spmvTestClass(rows, x), coo1, Opt2)
	if err != nil {
		t.Fatal(err)
	}
	for j := range cols {
		x.Elems[j].(*chapel.Real).Val = rng.NormFloat64()
	}
	tr.refreshHot(1)
	hot1 := slices.Clone(tr.hotWords)

	dense := makePoints(333, 3, 7)
	words1, err := LinearizeToWordsParallel(dense, 1)
	if err != nil {
		t.Fatal(err)
	}

	for workers := 1; workers <= 8; workers++ {
		coo, err := linearizeCOO(boxed, rows, cols, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(coo.R, coo1.R) || !slices.Equal(coo.C, coo1.C) || !slices.Equal(coo.V, coo1.V) {
			t.Fatalf("workers=%d: LinearizeCOO differs from one worker", workers)
		}
		if _, err := linearizeCOO(badCOO, rows, cols, workers); err == nil || err.Error() != fracErr1.Error() {
			t.Fatalf("workers=%d: LinearizeCOO error %v, want %v", workers, err, fracErr1)
		}
		plan, err := newInspectorPlan(coo, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(plan.rowPtr, plan1.rowPtr) || !slices.Equal(plan.in, plan1.in) || !slices.Equal(plan.vals, plan1.vals) {
			t.Fatalf("workers=%d: inspector plan differs from one worker", workers)
		}
		if _, err := newInspectorPlan(oob, workers); err == nil || err.Error() != oobErr1.Error() {
			t.Fatalf("workers=%d: inspector error %v, want %v", workers, err, oobErr1)
		}
		clear(tr.hotWords)
		tr.refreshHot(workers)
		if !slices.Equal(tr.hotWords, hot1) {
			t.Fatalf("workers=%d: refreshed words differ from one worker", workers)
		}
		words, err := LinearizeToWordsParallel(dense, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(words, words1) {
			t.Fatalf("workers=%d: dense words differ from one worker", workers)
		}
	}

	// The defaults, above four grains.
	const big = 4*grain + 3
	bigCOO := randomCOO(rng, grain, big, big, grain, big, 0)
	bigPlan, err := NewInspectorPlan(bigCOO)
	if err != nil {
		t.Fatal(err)
	}
	seqPlan, err := newInspectorPlan(bigCOO, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bigPlan.rowPtr, seqPlan.rowPtr) || !slices.Equal(bigPlan.in, seqPlan.in) || !slices.Equal(bigPlan.vals, seqPlan.vals) {
		t.Fatalf("%d workers: inspector plan differs from one worker", inspectorWorkers(big, grain))
	}
	vec := make([]float64, big)
	for j := range vec {
		vec[j] = float64(j)
	}
	bigX := chapel.RealArray(vec...)
	words, err := LinearizeToWords(bigX)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(words, vec) {
		t.Fatalf("%d workers: dense words differ from the vector", stageWorkers(big))
	}
	sp, err := TranslateSparse(spmvTestClass(grain, bigX), bigCOO, Opt3)
	if err != nil {
		t.Fatal(err)
	}
	for j := range vec {
		vec[j] = -vec[j]
		bigX.Elems[j].(*chapel.Real).Val = vec[j]
	}
	sp.RefreshHot()
	if !slices.Equal(sp.hotWords, vec) {
		t.Fatalf("%d workers: refreshed words differ from the vector", stageWorkers(big))
	}
}
