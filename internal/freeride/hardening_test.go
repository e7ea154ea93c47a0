package freeride

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// blockedSource blocks every read until the caller's context is cancelled —
// the worst case for cancellation latency: a device that never returns.
type blockedSource struct{ rows, cols int }

func (s *blockedSource) NumRows() int { return s.rows }
func (s *blockedSource) Cols() int    { return s.cols }
func (s *blockedSource) ReadRows(begin, end int, dst []float64) error {
	time.Sleep(10 * time.Second)
	return errors.New("blockedSource: read without context")
}
func (s *blockedSource) ReadRowsContext(ctx context.Context, begin, end int, dst []float64) error {
	<-ctx.Done()
	return ctx.Err()
}

// TestRunContextCancelBlockedSource: cancelling a run whose workers are all
// blocked inside source reads returns ctx.Err() well under a second.
func TestRunContextCancelBlockedSource(t *testing.T) {
	cancelledBefore := obs.Default.Value("freeride_runs_cancelled_total")
	eng := New(Config{Threads: 2, SplitRows: 10})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	res, err := eng.RunContext(ctx, sumSpec(), &blockedSource{rows: 1000, cols: 2})
	elapsed := time.Since(t0)
	if res != nil {
		t.Fatal("cancelled run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled run took %v, want well under a second", elapsed)
	}
	if d := obs.Default.Value("freeride_runs_cancelled_total") - cancelledBefore; d != 1 {
		t.Fatalf("freeride_runs_cancelled_total delta = %d, want 1", d)
	}
}

// TestRunContextDeadline: a deadline on a slow (but responsive) source
// surfaces as DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	m := dataset.UniformMatrix(10_000, 2, 1, 0, 1)
	slow := dataset.NewFaultSource(dataset.NewMemorySource(m),
		dataset.FaultConfig{Latency: 5 * time.Millisecond})
	eng := New(Config{Threads: 2, SplitRows: 50})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := eng.RunContext(ctx, sumSpec(), slow)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Fatalf("timed-out run took %v", elapsed)
	}
}

// TestRunContextPreCancelled: an already-cancelled context fails the run
// before any split is processed.
func TestRunContextPreCancelled(t *testing.T) {
	m := dataset.UniformMatrix(1000, 2, 1, 0, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New(Config{Threads: 2}).RunContext(ctx, sumSpec(), dataset.NewMemorySource(m))
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want nil/Canceled", res, err)
	}
}

// TestReductionErrorStopsScheduler: after the first worker error the others
// stop draining the scheduler, observable as a sched_chunks_total delta far
// below the split count.
func TestReductionErrorStopsScheduler(t *testing.T) {
	const rows, splitRows = 10_000, 10 // 1000 splits
	m := dataset.UniformMatrix(rows, 1, 1, 0, 1)
	boom := errors.New("boom")
	var calls atomic.Int64
	spec := Spec{
		Object: ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			calls.Add(1)
			if a.Begin == 0 {
				return boom
			}
			time.Sleep(200 * time.Microsecond) // give the stop flag time to matter
			return nil
		},
	}
	label := obs.Label{Key: "policy", Value: "dynamic"}
	before := obs.Default.Value("sched_chunks_total", label)
	failedBefore := obs.Default.Value("freeride_runs_failed_total")
	_, err := New(Config{Threads: 4, SplitRows: splitRows}).RunContext(context.Background(), spec, dataset.NewMemorySource(m))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	delta := obs.Default.Value("sched_chunks_total", label) - before
	if delta > 200 {
		t.Fatalf("scheduler handed out %d of 1000 chunks after the error; workers kept draining", delta)
	}
	if d := obs.Default.Value("freeride_runs_failed_total") - failedBefore; d != 1 {
		t.Fatalf("freeride_runs_failed_total delta = %d, want 1", d)
	}
}

// TestFailedRunFlushesTrace: error-path returns still flush the partial
// trace into the process event log instead of leaking the run's spans.
func TestFailedRunFlushesTrace(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 1, 0, 1)
	spec := sumSpec()
	spec.Reduction = func(*ReductionArgs) error { return errors.New("fail") }
	before := obs.Log.Len()
	if _, err := New(Config{Threads: 2}).RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err == nil {
		t.Fatal("expected error")
	}
	after := obs.Log.Len()
	// The log is a bounded ring; at capacity Len stays flat even on Add.
	if after == before && after < 512 {
		t.Fatalf("failed run not flushed to event log (len %d -> %d)", before, after)
	}

	// Same for a splitter-validation failure.
	spec = sumSpec()
	spec.Splitter = func(totalRows, units int) []sched.Chunk {
		return []sched.Chunk{{Begin: 5, End: totalRows}} // does not tile [0, totalRows)
	}
	before = obs.Log.Len()
	if _, err := New(Config{Threads: 2}).RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err == nil {
		t.Fatal("expected splitter validation error")
	}
	if after := obs.Log.Len(); after == before && after < 512 {
		t.Fatal("splitter-validation failure not flushed to event log")
	}
}

// TestCombineValidationAndFinalizeFlush: Combine and Finalize error paths
// flush the trace and count as failed runs.
func TestCombineValidationAndFinalizeFlush(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 1, 0, 1)
	for name, mut := range map[string]func(*Spec){
		"combine":  func(s *Spec) { s.Combine = func(*robj.Object) error { return errors.New("combine fail") } },
		"finalize": func(s *Spec) { s.Finalize = func(*Result) error { return errors.New("finalize fail") } },
	} {
		spec := sumSpec()
		mut(&spec)
		failedBefore := obs.Default.Value("freeride_runs_failed_total")
		logBefore := obs.Log.Len()
		if _, err := New(Config{Threads: 2}).RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if d := obs.Default.Value("freeride_runs_failed_total") - failedBefore; d != 1 {
			t.Fatalf("%s: failed counter delta = %d, want 1", name, d)
		}
		if after := obs.Log.Len(); after == logBefore && after < 512 {
			t.Fatalf("%s: trace not flushed", name)
		}
	}
}

// TestCombineRequiresCellObject: a Combine hook on a spec that declares no
// reduction object is rejected at validation time (FRV045) instead of
// handing user code a nil object.
func TestCombineRequiresCellObject(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 1, 0, 1)
	spec := Spec{
		Reduction: func(a *ReductionArgs) error { return nil },
		Combine:   func(o *robj.Object) error { _ = o.Get(0, 0); return nil }, // would panic on nil o
	}
	_, err := New(Config{Threads: 2}).RunContext(context.Background(), spec, dataset.NewMemorySource(m))
	if err == nil || !strings.Contains(err.Error(), "FRV045") || !strings.Contains(err.Error(), "declares no reduction object") {
		t.Fatalf("err = %v, want descriptive validation error", err)
	}
}

// TestRunRecoversThroughRetrySource: seeded transient faults behind the
// retry layer do not change the reduction result, while the same faults
// without retry fail the run and permanent faults surface through it.
func TestRunRecoversThroughRetrySource(t *testing.T) {
	m := dataset.UniformMatrix(20_000, 2, 5, 0, 1)
	eng := New(Config{Threads: 4, SplitRows: 128})
	clean, err := eng.RunContext(context.Background(), sumSpec(), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}

	faultCfg := dataset.FaultConfig{Rate: 0.3, Seed: 11, FailCount: 2}
	faulty := dataset.NewFaultSource(dataset.NewMemorySource(m), faultCfg)
	if _, err := eng.RunContext(context.Background(), sumSpec(), faulty); err == nil {
		t.Fatal("fault injection without retry should fail the run")
	} else if !errors.Is(err, dataset.ErrInjectedFault) {
		t.Fatalf("err = %v, want injected fault", err)
	}

	retriesBefore := obs.Default.Value("dataset_read_retries_total")
	recovered, err := eng.RunContext(context.Background(), sumSpec(),
		dataset.NewRetrySource(dataset.NewFaultSource(dataset.NewMemorySource(m), faultCfg), 4, time.Millisecond))
	if err != nil {
		t.Fatalf("retry layer should recover the run: %v", err)
	}
	if got, want := recovered.Object.Get(0, 0), clean.Object.Get(0, 0); got != want {
		t.Fatalf("recovered sum %v != clean sum %v", got, want)
	}
	if d := obs.Default.Value("dataset_read_retries_total") - retriesBefore; d == 0 {
		t.Fatal("expected retries to be recorded")
	}

	perm := dataset.NewRetrySource(
		dataset.NewFaultSource(dataset.NewMemorySource(m),
			dataset.FaultConfig{Rate: 0.3, PermanentRate: 1, Seed: 11}),
		4, time.Millisecond)
	if _, err := eng.RunContext(context.Background(), sumSpec(), perm); err == nil {
		t.Fatal("permanent faults should fail the run through the retry layer")
	} else if !dataset.IsPermanent(err) {
		t.Fatalf("err = %v, want permanent fault", err)
	}
}
