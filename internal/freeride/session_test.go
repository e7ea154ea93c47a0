package freeride

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
)

// TestRunEmptySourceIdentity: a source with zero rows yields a merged
// reduction object holding the operator's identity in every cell, for every
// operator, without ever calling the reduction function.
func TestRunEmptySourceIdentity(t *testing.T) {
	empty := dataset.NewMemorySource(dataset.NewMatrix(0, 3))
	for _, op := range []robj.Op{robj.OpAdd, robj.OpMin, robj.OpMax} {
		eng := New(Config{Threads: 2, SplitRows: 16})
		spec := Spec{
			Object: ObjectSpec{Groups: 2, Elems: 2, Op: op},
			Reduction: func(a *ReductionArgs) error {
				t.Error("reduction called on empty source")
				return nil
			},
		}
		res, err := eng.RunContext(context.Background(), spec, empty)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		want := op.Identity()
		for g := 0; g < 2; g++ {
			for e := 0; e < 2; e++ {
				if got := res.Object.Get(g, e); got != want && !(math.IsInf(want, 0) && got == want) {
					t.Fatalf("op %v cell (%d,%d) = %v, want identity %v", op, g, e, got, want)
				}
			}
		}
		if res.Stats.Splits != 0 {
			t.Fatalf("op %v: %d splits on empty source", op, res.Stats.Splits)
		}
		eng.Close()
	}
}

// TestRunEmptySourceLocalState: on an empty source no worker touches its
// local copy of the reduction object, so under every sharing strategy the
// local merge of the per-worker copies yields the identity-filled object,
// and Combine and Finalize still run on it.
func TestRunEmptySourceLocalState(t *testing.T) {
	empty := dataset.NewMemorySource(dataset.NewMatrix(0, 1))
	for _, st := range robj.Strategies() {
		eng := New(Config{Threads: 3, SplitRows: 16, Strategy: st})
		var combined, finalized bool
		spec := Spec{
			Object:    ObjectSpec{Groups: 3, Elems: 2, Op: robj.OpMin},
			Reduction: func(a *ReductionArgs) error { return errors.New("must not run") },
			Combine:   func(o *robj.Object) error { combined = true; return nil },
			Finalize:  func(r *Result) error { finalized = true; return nil },
		}
		res, err := eng.RunContext(context.Background(), spec, empty)
		if err != nil {
			t.Fatalf("%v: %v", st, err)
		}
		if !combined || !finalized {
			t.Fatalf("%v: Combine ran %v, Finalize ran %v; both must run on an empty source", st, combined, finalized)
		}
		for c, v := range res.Object.Snapshot() {
			if !math.IsInf(v, 1) {
				t.Fatalf("%v: cell %d = %v, want the min identity +Inf", st, c, v)
			}
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
}

// TestClosedEngineRejectsWork: after Close, Start and RunContext return
// ErrEngineClosed; Close stays idempotent.
func TestClosedEngineRejectsWork(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 1, 0, 1)
	eng := New(Config{Threads: 2, SplitRows: 10})
	if _, err := eng.RunContext(context.Background(), sumSpec(), dataset.NewMemorySource(m)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := eng.Start(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Start after Close = %v, want ErrEngineClosed", err)
	}
	if _, err := eng.RunContext(context.Background(), sumSpec(), dataset.NewMemorySource(m)); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("RunContext after Close = %v, want ErrEngineClosed", err)
	}
}

// TestReleasePoolsObject: a released result's object is reused by every
// later same-shaped pass instead of allocating, each reuse yields the same
// answer, and res.Object is nilled so stale access fails fast.
func TestReleasePoolsObject(t *testing.T) {
	m := dataset.UniformMatrix(500, 1, 2, 0, 1)
	src := dataset.NewMemorySource(m)
	eng := New(Config{Threads: 2, SplitRows: 50})
	defer eng.Close()
	res, err := eng.RunContext(context.Background(), sumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Object
	want := first.Get(0, 0)
	for pass := 0; pass < 3; pass++ {
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
		if res.Object != nil {
			t.Fatal("Release left res.Object set")
		}
		res, err = eng.RunContext(context.Background(), sumSpec(), src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Object != first {
			t.Fatalf("pass %d did not reuse the released object", pass)
		}
		if got := res.Object.Get(0, 0); got != want {
			t.Fatalf("pass %d: pooled rerun sum = %v, want %v", pass, got, want)
		}
	}
	// Releasing a nil result or an object-less result is a no-op.
	if err := eng.Release(nil); err != nil {
		t.Fatal(err)
	}
	if err := eng.Release(&Result{}); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseWrongEngine: pooled objects are session-scoped — releasing a
// result to an engine with a different strategy/thread shape is rejected
// with an error that names the mismatch and the remedy.
func TestReleaseWrongEngine(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 3, 0, 1)
	a := New(Config{Threads: 2, SplitRows: 10})
	defer a.Close()
	b := New(Config{Threads: 3, SplitRows: 10})
	defer b.Close()
	res, err := a.RunContext(context.Background(), sumSpec(), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	err = b.Release(res)
	if err == nil {
		t.Fatal("cross-engine Release succeeded")
	}
	for _, want := range []string{"session-scoped", "workers", "release each result to the engine that produced it"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q is missing %q", err, want)
		}
	}
	if res.Object == nil {
		t.Fatal("failed Release must not consume the object")
	}
	if err := a.Release(res); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentJobsOnOnePool: independent jobs with different object
// shapes run concurrently on one session's worker pool and each produces
// its own correct result. CI runs this under -race.
func TestConcurrentJobsOnOnePool(t *testing.T) {
	eng := New(Config{Threads: 4, SplitRows: 64})
	defer eng.Close()
	m := dataset.UniformMatrix(4000, 2, 9, 0, 1)
	src := dataset.NewMemorySource(m)
	want := seqSum(m)

	const jobs = 8
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				if j%2 == 0 {
					res, err := eng.RunContext(context.Background(), sumSpec(), src)
					if err != nil {
						errs[j] = err
						return
					}
					if got := res.Object.Get(0, 0); math.Abs(got-want) > 1e-6 {
						errs[j] = errors.New("sum job diverged")
						return
					}
					errs[j] = eng.Release(res)
				} else {
					spec := Spec{
						Object: ObjectSpec{Groups: 4, Elems: 1, Op: robj.OpAdd},
						Reduction: func(a *ReductionArgs) error {
							for i := 0; i < a.NumRows; i++ {
								a.Accumulate((a.Begin+i)%4, 0, 1)
							}
							return nil
						},
					}
					res, err := eng.RunContext(context.Background(), spec, src)
					if err != nil {
						errs[j] = err
						return
					}
					var rows float64
					for g := 0; g < 4; g++ {
						rows += res.Object.Get(g, 0)
					}
					if rows != float64(m.Rows) {
						errs[j] = errors.New("count job diverged")
						return
					}
					errs[j] = eng.Release(res)
				}
				if errs[j] != nil {
					return
				}
			}
		}(j)
	}
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", j, err)
		}
	}
}

// TestCancelOneJobLeavesOthers: cancelling one in-flight job must not
// disturb a concurrent job on the same pool — the other job completes with
// the correct result.
func TestCancelOneJobLeavesOthers(t *testing.T) {
	eng := New(Config{Threads: 4, SplitRows: 32})
	defer eng.Close()
	m := dataset.UniformMatrix(2000, 1, 11, 0, 1)
	src := dataset.NewMemorySource(m)
	want := seqSum(m)

	ctx, cancel := context.WithCancel(context.Background())
	blockedErr := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(ctx, sumSpec(), &blockedSource{rows: 100, cols: 1})
		blockedErr <- err
	}()
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()

	// The healthy job keeps running passes while the blocked one is
	// cancelled out from under it.
	for pass := 0; pass < 10; pass++ {
		res, err := eng.RunContext(context.Background(), sumSpec(), src)
		if err != nil {
			t.Fatalf("healthy job pass %d: %v", pass, err)
		}
		if got := res.Object.Get(0, 0); math.Abs(got-want) > 1e-6 {
			t.Fatalf("healthy job pass %d: sum %v, want %v", pass, got, want)
		}
		if err := eng.Release(res); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-blockedErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked job returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled job did not return")
	}
}
