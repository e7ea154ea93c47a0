package robj

import (
	"sync"
	"testing"

	"chapelfreeride/internal/obs"
)

// TestUpdateCountersPerStrategy checks that every strategy reports exactly
// one robj_updates_total increment per Accumulate call, counted concurrently
// and flushed at Merge.
func TestUpdateCountersPerStrategy(t *testing.T) {
	const workers, perWorker = 4, 1000
	for _, st := range Strategies() {
		label := obs.Label{Key: "strategy", Value: st.String()}
		before := obs.Default.Value("robj_updates_total", label)
		o, err := Alloc(st, OpAdd, 2, 2, workers)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					// All workers hammer the same cell to exercise the
					// contention paths (lock waits, CAS retries) under -race.
					o.Accumulate(w, 0, 0, 1)
				}
			}(w)
		}
		wg.Wait()
		// Counts flush at Merge, not before.
		if got := obs.Default.Value("robj_updates_total", label); got != before {
			t.Fatalf("%v: counter flushed before Merge (%d -> %d)", st, before, got)
		}
		o.Merge()
		if got := o.Get(0, 0); got != workers*perWorker {
			t.Fatalf("%v: cell = %v, want %d", st, got, workers*perWorker)
		}
		delta := obs.Default.Value("robj_updates_total", label) - before
		if delta != workers*perWorker {
			t.Fatalf("%v: updates counter delta = %d, want %d", st, delta, workers*perWorker)
		}
	}
	// Contention counters are workload-dependent; just confirm they are
	// readable and non-negative after the hammering above.
	if v := obs.Default.Value("robj_cas_retries_total"); v < 0 {
		t.Fatalf("cas retries negative: %d", v)
	}
	for _, st := range Strategies() {
		if v := obs.Default.Value("robj_lock_waits_total", obs.Label{Key: "strategy", Value: st.String()}); v < 0 {
			t.Fatalf("%v: lock waits negative: %d", st, v)
		}
	}
}

// TestUpdateCountersAcrossReset checks that pooled reuse (Reset then another
// pass) keeps counting.
func TestUpdateCountersAcrossReset(t *testing.T) {
	label := obs.Label{Key: "strategy", Value: FullReplication.String()}
	before := obs.Default.Value("robj_updates_total", label)
	o, err := Alloc(FullReplication, OpAdd, 1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	o.Accumulate(0, 0, 0, 1)
	o.Accumulate(1, 0, 0, 1)
	o.Merge()
	o.Reset()
	o.Accumulate(0, 0, 0, 1)
	o.Merge()
	if delta := obs.Default.Value("robj_updates_total", label) - before; delta != 3 {
		t.Fatalf("updates across Reset = %d, want 3", delta)
	}
}
