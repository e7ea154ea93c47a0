//go:build !race

package core

import (
	"context"
	"math/rand"
	"testing"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/sched"
)

// TestSparseFusedPassAllocs is the allocation-regression guard for the
// opt-3 sparse executor: the gather scratch lives in the pool worker's
// persistent state and each row piece goes straight into the pooled object,
// so a warm pass over 1000 splits costs the same small per-pass constant as
// any session pass — a per-split allocation would blow the budget. The
// raceless build is required because -race instrumentation inflates
// allocation counts.
func TestSparseFusedPassAllocs(t *testing.T) {
	const rows, nnz = 8192, 64_000
	coo := randomCOO(rand.New(rand.NewSource(17)), rows, rows, nnz, rows, rows, 0)
	xv := make([]float64, rows)
	for j := range xv {
		xv[j] = 1
	}
	tr, err := TranslateSparse(spmvTestClass(rows, chapel.RealArray(xv...)), coo, Opt3)
	if err != nil {
		t.Fatal(err)
	}
	spec, src := tr.Spec(), tr.Source()
	eng := freeride.New(freeride.Config{Threads: 4, SplitRows: 64, Scheduler: sched.Dynamic})
	defer eng.Close()
	pass := func() {
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ { // warm the session pools and worker scratch
		pass()
	}
	allocs := testing.AllocsPerRun(10, pass)
	t.Logf("steady-state opt-3 sparse pass: %.1f allocs", allocs)
	if allocs > 150 {
		t.Fatalf("steady-state opt-3 sparse pass allocated %.0f times (budget 150) — "+
			"the gather scratch (or another pooled resource) is being reallocated per split or per pass", allocs)
	}
}
