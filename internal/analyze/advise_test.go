package analyze

import (
	"testing"

	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestAdviseDeterministic: Advise is a pure function of (profile, threads),
// and every profile gets full replication under dynamic scheduling.
func TestAdviseDeterministic(t *testing.T) {
	shapes := []struct {
		rows, cols, groups, elems int
	}{
		{1000, 4, 8, 5},
		{100000, 64, 64, 64},
		{10, 2, 1, 1},
		{1 << 20, 8, 4096, 64},
	}
	for _, s := range shapes {
		for _, threads := range []int{1, 2, 4, 8, 16} {
			first := Advise(DenseProfile("kmeans", s.rows, s.cols, s.groups, s.elems, Options{}), threads)
			if first.Strategy != robj.FullReplication || first.Scheduler != sched.Dynamic {
				t.Fatalf("shape %+v threads %d: advice %s/%s, want replication/dynamic", s, threads, first.Strategy, first.Scheduler)
			}
			for i := 0; i < 50; i++ {
				again := Advise(DenseProfile("kmeans", s.rows, s.cols, s.groups, s.elems, Options{}), threads)
				if again != first {
					t.Fatalf("shape %+v threads %d: advice differs across calls:\n%+v\n%+v", s, threads, first, again)
				}
			}
		}
	}
}

func TestAdviseSplitRows(t *testing.T) {
	cases := []struct {
		domain, threads, want int
	}{
		{0, 8, defaultSplitRows}, // unknown domain: engine default
		{100, 8, minSplitRows},   // tiny domain: floor
		{1 << 30, 1, maxSplitRows},
		{65536, 8, 256 * 2 * 2}, // 65536/(8*8)=1024, pow2 floor
		// The serve_mixed shapes at 2 threads: kmeans 100,000 rows, pca
		// 10,000 rows, spmv 200,000 triples.
		{100000, 2, 4096},
		{10000, 2, 512},
		{200000, 2, 8192},
	}
	for _, c := range cases {
		if got := adviseSplitRows(c.domain, c.threads); got != c.want {
			t.Fatalf("adviseSplitRows(%d,%d) = %d, want %d", c.domain, c.threads, got, c.want)
		}
	}
}

func TestAdviceApply(t *testing.T) {
	base := freeride.Config{Threads: 4, SplitRows: 4096}
	a := Advice{Strategy: robj.AtomicCAS, Scheduler: sched.WorkStealing, SplitRows: 512}
	got := a.Apply(base)
	if got.Threads != 4 {
		t.Fatalf("Apply must not touch Threads, got %d", got.Threads)
	}
	if got.Strategy != robj.AtomicCAS || got.Scheduler != sched.WorkStealing || got.SplitRows != 512 {
		t.Fatalf("Apply = %+v", got)
	}
	// A zero SplitRows leaves the base value alone.
	got = Advice{Strategy: robj.FullLocking, Scheduler: sched.Guided}.Apply(base)
	if got.SplitRows != 4096 {
		t.Fatalf("Apply with zero knobs = %+v", got)
	}
}
