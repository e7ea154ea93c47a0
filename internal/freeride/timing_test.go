package freeride

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// TestCombineTimeExcludesLocalCombine pins the combine-timing fix: with a
// slow local merge (a large object replicated on several workers) and a
// no-op user Combine, Stats.CombineTime must track the PhaseCombine span
// alone and not absorb the merge already reported under PhaseLocalCombine —
// the regression was CombineTime (and the freeride_combine histogram)
// double-counting the local-combine phase because it was measured from the
// local-combine start.
func TestCombineTimeExcludesLocalCombine(t *testing.T) {
	// 4 replicas of a 512Ki-cell object: the merge folds 2Mi cells, orders
	// of magnitude more work than the empty Combine.
	const threads, groups, elems = 4, 512, 1024
	eng := New(Config{Threads: threads, SplitRows: 8, Strategy: robj.FullReplication})
	defer eng.Close()
	src := dataset.NewMemorySource(rowMatrix(64, 2))

	spec := Spec{
		Object: ObjectSpec{Groups: groups, Elems: elems, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				a.Accumulate((a.Begin+i)%groups, 0, a.Row(i)[0])
			}
			return nil
		},
		Combine: func(o *robj.Object) error { return nil },
	}

	hist := obs.Default.FindHistogram("freeride_combine_duration_seconds")
	if hist == nil {
		t.Fatal("freeride_combine_duration_seconds not registered")
	}
	before := hist.State()

	res, err := eng.RunContext(context.Background(), spec, src)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Release(res)

	localMerge := res.Stats.LocalCombineTime
	if localMerge <= 0 {
		t.Fatal("LocalCombineTime = 0: the replica merge was not timed")
	}
	if res.Stats.CombineTime >= localMerge {
		t.Fatalf("CombineTime = %v still absorbs the %v local-combine phase", res.Stats.CombineTime, localMerge)
	}

	// CombineTime must agree with the PhaseCombine span, not the
	// local-combine + combine window.
	var combineSpan time.Duration
	found := false
	for _, sp := range res.Stats.Spans {
		if sp.Name == PhaseCombine {
			combineSpan, found = sp.Dur, true
		}
	}
	if !found {
		t.Fatal("no PhaseCombine span recorded")
	}
	if diff := res.Stats.CombineTime - combineSpan; diff < -localMerge/2 || diff > localMerge/2 {
		t.Fatalf("CombineTime %v diverges from PhaseCombine span %v", res.Stats.CombineTime, combineSpan)
	}

	// The histogram observation carries the same fix: the pass recorded one
	// combine observation well below the local-combine delay.
	d := hist.State().Sub(before)
	if d.Count != 1 {
		t.Fatalf("combine histogram recorded %d observations, want 1", d.Count)
	}
	if d.Sum >= localMerge.Seconds() {
		t.Fatalf("combine histogram sum %.6fs includes the %v local-combine phase", d.Sum, localMerge)
	}

	// Total still accounts for every phase, including the split-out one.
	want := res.Stats.SplitTime + res.Stats.ReduceTime + res.Stats.LocalCombineTime +
		res.Stats.CombineTime + res.Stats.FinalizeTime
	if res.Stats.Total() != want {
		t.Fatalf("Stats.Total() = %v, want %v", res.Stats.Total(), want)
	}
}

// TestCombineHistogramOnlyWhenCombineRuns: specs without a user Combine no
// longer observe anything into the combine histogram (previously every pass
// recorded its local-combine wall time there).
func TestCombineHistogramOnlyWhenCombineRuns(t *testing.T) {
	eng := New(Config{Threads: 2, SplitRows: 8})
	defer eng.Close()
	src := dataset.NewMemorySource(rowMatrix(32, 2))
	hist := obs.Default.FindHistogram("freeride_combine_duration_seconds")
	before := hist.State()
	res, err := eng.RunContext(context.Background(), Spec{
		Object: ObjectSpec{Groups: 1, Elems: 2, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				a.Accumulate(0, 0, 1)
			}
			return nil
		},
	}, src)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Release(res)
	if res.Stats.CombineTime != 0 {
		t.Fatalf("CombineTime = %v without a user Combine, want 0", res.Stats.CombineTime)
	}
	if d := hist.State().Sub(before); d.Count != 0 {
		t.Fatalf("combine histogram recorded %d observations for a pass with no Combine", d.Count)
	}
}

// TestCancelDuringFullTicketChannelRunsNoOrphanSlots: when a job is
// cancelled while its tickets are still queued behind another job's, the
// queued slots must observe the stop flag at slot start and retire without
// running the user Reduction or touching the scheduler.
func TestCancelDuringFullTicketChannelRunsNoOrphanSlots(t *testing.T) {
	const threads = 4
	eng := New(Config{Threads: threads, SplitRows: 4})
	defer eng.Close()
	src := dataset.NewMemorySource(rowMatrix(64, 2))

	// Job A wedges every pool worker until released, so job B's tickets sit
	// in the (full enough) channel while B is cancelled.
	release := make(chan struct{})
	var wedged atomic.Int32
	jobA := Spec{
		Object: ObjectSpec{Groups: 1, Elems: 2, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			if wedged.Add(1) <= threads {
				<-release
			}
			return nil
		},
	}
	aDone := make(chan error, 1)
	go func() {
		res, err := eng.RunContext(context.Background(), jobA, src)
		if err == nil {
			err = eng.Release(res)
		}
		aDone <- err
	}()
	// Wait until every worker is wedged inside job A.
	for deadline := time.Now().Add(5 * time.Second); wedged.Load() < threads; {
		if time.Now().After(deadline) {
			t.Fatal("workers never wedged on job A")
		}
		time.Sleep(time.Millisecond)
	}

	var reductions atomic.Int32
	jobB := Spec{
		Object: ObjectSpec{Groups: 1, Elems: 2, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			reductions.Add(1)
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	bDone := make(chan error, 1)
	go func() {
		_, err := eng.RunContext(ctx, jobB, src)
		bDone <- err
	}()
	// Give B's submitter time to enqueue its tickets behind A's, then cancel
	// while every one of them is still queued.
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-bDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("job B returned %v, want context.Canceled", err)
	}

	// Release job A; its workers drain B's orphan tickets on the way out.
	close(release)
	if err := <-aDone; err != nil {
		t.Fatalf("job A: %v", err)
	}
	// Orphan slots must not have run any of B's user code.
	if n := reductions.Load(); n != 0 {
		t.Fatalf("cancelled job's Reduction ran %d times on orphan slots", n)
	}
}

// rowMatrix builds an n×cols matrix with every cell set to 1.
func rowMatrix(n, cols int) *dataset.Matrix {
	m := dataset.NewMatrix(n, cols)
	for i := range m.Data {
		m.Data[i] = 1
	}
	return m
}
