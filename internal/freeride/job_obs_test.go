package freeride

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestJobScopedDeltasConcurrent is the acceptance check for job-scoped
// observability: several jobs with different row counts run concurrently on
// one session's shared pool, and each Result's JobDeltas must report exactly
// that job's rows — the per-job view never blurs across concurrent jobs the
// way a registry-wide diff would.
func TestJobScopedDeltasConcurrent(t *testing.T) {
	e := New(Config{Threads: 4, SplitRows: 16, Scheduler: sched.Dynamic})
	defer e.Close()

	rowCounts := []int{100, 500, 900, 1300}
	results := make([]*Result, len(rowCounts))
	errs := make([]error, len(rowCounts))
	var wg sync.WaitGroup
	for i, rows := range rowCounts {
		wg.Add(1)
		go func(i, rows int) {
			defer wg.Done()
			src := dataset.NewMemorySource(dataset.UniformMatrix(rows, 2, int64(i+1), 0, 1))
			results[i], errs[i] = e.RunContext(context.Background(), sumSpec(), src)
		}(i, rows)
	}
	wg.Wait()

	seenJobs := map[obs.JobID]bool{}
	for i, rows := range rowCounts {
		if errs[i] != nil {
			t.Fatalf("job %d failed: %v", i, errs[i])
		}
		st := results[i].Stats
		if st.Job == 0 {
			t.Fatalf("job %d has no job id", i)
		}
		if seenJobs[st.Job] {
			t.Fatalf("job id %d assigned twice", st.Job)
		}
		seenJobs[st.Job] = true
		deltas := map[string]int64{}
		for _, d := range st.JobDeltas {
			deltas[d.Key()] = d.Value
		}
		if got := deltas["freeride_rows_total"]; got != int64(rows) {
			t.Errorf("job %d: freeride_rows_total = %d, want exactly %d", i, got, rows)
		}
		if got := deltas["freeride_runs_total"]; got != 1 {
			t.Errorf("job %d: freeride_runs_total = %d, want 1", i, got)
		}
		if got := deltas["freeride_splits_total"]; got != int64(st.Splits) {
			t.Errorf("job %d: freeride_splits_total = %d, want %d", i, got, st.Splits)
		}
		if deltas[`freeride_phase_ns_total{phase="reduce"}`] <= 0 {
			t.Errorf("job %d: no reduce-phase time attributed", i)
		}
		e.Release(results[i])
	}
}

// TestRunContextWithJob checks the coordinator path: a job id carried on the
// context (obs.WithJob) becomes the pass's Stats.Job and attributes its
// counter deltas and its event-log entry — every span record the pass
// produced — while a context carrying no id gets a freshly minted one.
func TestRunContextWithJob(t *testing.T) {
	e := New(Config{Threads: 2})
	defer e.Close()
	const rows = 64
	src := dataset.NewMemorySource(dataset.UniformMatrix(rows, 1, 1, 0, 1))

	id := obs.NextJobID()
	res, err := e.RunContext(obs.WithJob(context.Background(), id), sumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release(res)
	if res.Stats.Job != id {
		t.Fatalf("Stats.Job = %d, want the context's %d", res.Stats.Job, id)
	}
	deltas := map[string]int64{}
	for _, d := range res.Stats.JobDeltas {
		deltas[d.Key()] = d.Value
	}
	if deltas["freeride_runs_total"] != 1 || deltas["freeride_rows_total"] != rows {
		t.Fatalf("job deltas = %v, want one run over %d rows", deltas, rows)
	}

	var b bytes.Buffer
	if err := obs.Log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Job   uint64 `json:"job"`
			Spans []struct {
				ID int64 `json:"id"`
			} `json:"spans"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	entries, logged := 0, map[int64]bool{}
	for _, r := range doc.Runs {
		if r.Job != uint64(id) {
			continue
		}
		entries++
		for _, sp := range r.Spans {
			logged[sp.ID] = true
		}
	}
	if entries != 1 {
		t.Fatalf("event log holds %d runs under job %d, want 1", entries, id)
	}
	if len(res.Stats.Spans) == 0 {
		t.Fatal("pass recorded no spans")
	}
	for _, sp := range res.Stats.Spans {
		if !logged[sp.ID] {
			t.Errorf("span %d (%s) is not in the event-log entry of job %d", sp.ID, sp.Name, id)
		}
	}

	fresh, err := e.RunContext(context.Background(), sumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release(fresh)
	if fresh.Stats.Job <= id {
		t.Fatalf("a context without a job id ran under %d, want a fresh id after %d", fresh.Stats.Job, id)
	}
}

// TestPassHistogramRecords checks the engine observes pass, split, and
// combine latency into the registered histograms.
func TestPassHistogramRecords(t *testing.T) {
	for _, name := range []string{
		"freeride_pass_duration_seconds",
		"freeride_split_duration_seconds",
		"freeride_combine_duration_seconds",
	} {
		if obs.Default.FindHistogram(name) == nil {
			t.Fatalf("histogram %s not registered", name)
		}
	}
	before := obs.Default.FindHistogram("freeride_pass_duration_seconds").State()
	e := New(Config{Threads: 2, Strategy: robj.FullLocking})
	defer e.Close()
	src := dataset.NewMemorySource(dataset.UniformMatrix(256, 1, 1, 0, 1))
	res, err := e.RunContext(context.Background(), sumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	e.Release(res)
	d := obs.Default.FindHistogram("freeride_pass_duration_seconds").State().Sub(before)
	if d.Count < 1 {
		t.Fatalf("pass histogram recorded %d observations, want >= 1", d.Count)
	}
	if p99 := d.Quantile(0.99); p99 <= 0 {
		t.Errorf("pass p99 = %g, want > 0", p99)
	}
}
