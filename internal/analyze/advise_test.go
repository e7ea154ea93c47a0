package analyze

import (
	"reflect"
	"testing"

	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestAdviseDeterministic is the property test the acceptance criteria pin:
// Advise is a pure function of (profile, threads) — repeated calls and
// calls over an independently reconstructed profile agree exactly, trace
// included.
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
			first := Advise(Profile(densePlan(s.rows, s.cols, s.groups, s.elems), Options{}), threads)
			for i := 0; i < 50; i++ {
				again := Advise(Profile(densePlan(s.rows, s.cols, s.groups, s.elems), Options{}), threads)
				if !reflect.DeepEqual(first, again) {
					t.Fatalf("shape %+v threads %d: advice differs across calls:\n%+v\n%+v", s, threads, first, again)
				}
			}
		}
	}
	// Inspector plans too: the histogram fold must not perturb the pick.
	out := make([]int32, 5000)
	for i := range out {
		out[i] = int32((i * 7) % 1000)
	}
	first := Advise(Profile(scatterPlan(out, 1000), Options{}), 8)
	for i := 0; i < 50; i++ {
		if again := Advise(Profile(scatterPlan(out, 1000), Options{}), 8); !reflect.DeepEqual(first, again) {
			t.Fatalf("inspector advice differs:\n%+v\n%+v", first, again)
		}
	}
}

func TestAdviseRules(t *testing.T) {
	// Small dense object: replication, dynamic.
	a := Advise(Profile(densePlan(100000, 4, 8, 5), Options{}), 8)
	if a.Strategy != robj.FullReplication || a.Scheduler != sched.Dynamic {
		t.Fatalf("dense pick = %s/%s", a.Strategy, a.Scheduler)
	}
	// One-cell hotspot: replication even at high thread counts.
	a = Advise(Profile(densePlan(100000, 4, 1, 1), Options{}), 16)
	if a.Strategy != robj.FullReplication {
		t.Fatalf("hotspot pick = %s", a.Strategy)
	}
	// Sparse touch: a large object with far fewer updates than merge adds
	// (low-density SpMV) goes atomic.
	sp := SparseShapeProfile("spmv", 1000, 100000, Options{})
	a = Advise(sp, 8)
	if a.Strategy != robj.AtomicCAS {
		t.Fatalf("sparse-touch pick = %s, trace %v", a.Strategy, a.Trace)
	}
	// Dense traffic on the same object (high density): back to replication.
	sp = SparseShapeProfile("spmv", 10000000, 100000, Options{})
	a = Advise(sp, 8)
	if a.Strategy != robj.FullReplication {
		t.Fatalf("dense-traffic pick = %s, trace %v", a.Strategy, a.Trace)
	}
	// Skewed inspector scatter: work stealing.
	out := make([]int32, 10000)
	for i := range out {
		out[i] = int32(i % 500)
	}
	for i := 0; i < 5000; i++ {
		out[i] = 3
	}
	a = Advise(Profile(scatterPlan(out, 500), Options{}), 8)
	if a.Scheduler != sched.WorkStealing {
		t.Fatalf("skewed pick = %s, trace %v", a.Scheduler, a.Trace)
	}
	// Single worker: always replication (nothing to mediate).
	for _, pr := range []*PlanProfile{
		Profile(densePlan(100000, 4, 1024, 64), Options{}),
		SparseShapeProfile("spmv", 1000, 100000, Options{}),
	} {
		if a = Advise(pr, 1); a.Strategy != robj.FullReplication {
			t.Fatalf("threads=1 pick = %s", a.Strategy)
		}
	}
	// Every pick carries an explanation.
	if len(a.Trace) == 0 {
		t.Fatal("advice with no trace")
	}
}

func TestAdviseSplitRows(t *testing.T) {
	cases := []struct {
		domain, threads, want int
	}{
		{0, 8, DefaultSplitRows}, // unknown domain: engine default
		{100, 8, minSplitRows},   // tiny domain: floor
		{1 << 30, 1, maxSplitRows},
		{65536, 8, 256 * 2 * 2}, // 65536/(8*8)=1024, pow2 floor
	}
	for _, c := range cases {
		if got := adviseSplitRows(c.domain, c.threads); got != c.want {
			t.Fatalf("adviseSplitRows(%d,%d) = %d, want %d", c.domain, c.threads, got, c.want)
		}
	}
}

func TestAdviceApply(t *testing.T) {
	base := freeride.Config{Threads: 4, SplitRows: 4096}
	a := Advice{Strategy: robj.AtomicCAS, Scheduler: sched.WorkStealing, SplitRows: 512, SparseAccCells: -1}
	got := a.Apply(base)
	if got.Threads != 4 {
		t.Fatalf("Apply must not touch Threads, got %d", got.Threads)
	}
	if got.Strategy != robj.AtomicCAS || got.Scheduler != sched.WorkStealing || got.SplitRows != 512 || got.SparseAccCells != -1 {
		t.Fatalf("Apply = %+v", got)
	}
	// Zero SparseAccCells / SplitRows leave the base values alone.
	got = Advice{Strategy: robj.FullLocking, Scheduler: sched.Guided}.Apply(base)
	if got.SplitRows != 4096 || got.SparseAccCells != 0 {
		t.Fatalf("Apply with zero knobs = %+v", got)
	}
}
