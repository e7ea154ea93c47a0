package freeride

import (
	"context"
	"strings"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// colSumSpec builds a trivial per-column-sum spec over a cols-wide dataset.
func colSumSpec(cols int) Spec {
	return Spec{
		Object: ObjectSpec{Groups: 1, Elems: cols, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				for j, v := range row {
					a.Accumulate(0, j, v)
				}
			}
			return nil
		},
	}
}

func TestRunRecordsObservability(t *testing.T) {
	const rows, cols, threads = 10000, 4, 3
	m := dataset.UniformMatrix(rows, cols, 7, 0, 1)
	eng := New(Config{Threads: threads, SplitRows: 512})

	runsBefore := obs.Default.Value("freeride_runs_total")
	reduceNSBefore := obs.Default.Value("freeride_phase_ns_total", obs.Label{Key: "phase", Value: PhaseReduce})
	logBefore := obs.Log.Len()

	res, err := eng.RunContext(context.Background(), colSumSpec(cols), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}

	// Coarse Stats still work and the new per-worker views are consistent
	// with them.
	var splits, rowsSeen int64
	if len(res.Stats.WorkerSplits) != threads || len(res.Stats.WorkerRows) != threads ||
		len(res.Stats.WorkerBusy) != threads {
		t.Fatalf("per-worker stats not sized to %d workers: %+v", threads, res.Stats)
	}
	for w := 0; w < threads; w++ {
		splits += res.Stats.WorkerSplits[w]
		rowsSeen += res.Stats.WorkerRows[w]
		if res.Stats.WorkerBusy[w] < 0 || res.Stats.WorkerIdle(w) < 0 {
			t.Fatalf("worker %d: negative busy/idle", w)
		}
		if res.Stats.WorkerBusy[w] > res.Stats.ReduceTime {
			t.Fatalf("worker %d: busy %v exceeds phase wall %v", w, res.Stats.WorkerBusy[w], res.Stats.ReduceTime)
		}
	}
	if splits != int64(res.Stats.Splits) {
		t.Fatalf("worker splits sum %d != Stats.Splits %d", splits, res.Stats.Splits)
	}
	if rowsSeen != rows {
		t.Fatalf("worker rows sum %d != %d", rowsSeen, rows)
	}

	// The phase trace is embedded in Stats and nests correctly.
	if len(res.Stats.Spans) == 0 {
		t.Fatal("Stats.Spans empty")
	}
	byName := map[string][]obs.SpanRecord{}
	var runID int64
	for _, r := range res.Stats.Spans {
		byName[r.Name] = append(byName[r.Name], r)
		if r.Name == "run" {
			runID = r.ID
		}
	}
	for _, phase := range []string{PhaseSplit, PhaseReduce, PhaseLocalCombine} {
		recs := byName[phase]
		if len(recs) != 1 {
			t.Fatalf("phase %q: %d spans, want 1", phase, len(recs))
		}
		if recs[0].Parent != runID {
			t.Fatalf("phase %q not nested under run", phase)
		}
	}
	workersSeen := map[int]bool{}
	for _, r := range byName["worker"] {
		if r.Parent != byName[PhaseReduce][0].ID {
			t.Fatal("worker span not nested under reduce")
		}
		workersSeen[r.Worker] = true
	}
	if len(workersSeen) != threads {
		t.Fatalf("worker spans for %d workers, want %d", len(workersSeen), threads)
	}

	// Global counters and the event log advanced.
	if got := obs.Default.Value("freeride_runs_total"); got != runsBefore+1 {
		t.Fatalf("runs counter %d, want %d", got, runsBefore+1)
	}
	reduceDelta := obs.Default.Value("freeride_phase_ns_total", obs.Label{Key: "phase", Value: PhaseReduce}) - reduceNSBefore
	if reduceDelta < int64(res.Stats.ReduceTime) {
		t.Fatalf("reduce phase counter advanced %d ns, want >= %d", reduceDelta, int64(res.Stats.ReduceTime))
	}
	if obs.Log.Len() != logBefore+1 && obs.Log.Len() != 512 {
		t.Fatalf("event log did not record the run")
	}
}

func TestPhasesListsCombineAndFinalize(t *testing.T) {
	m := dataset.UniformMatrix(100, 2, 1, 0, 1)
	eng := New(Config{Threads: 2})
	spec := colSumSpec(2)
	spec.Combine = func(o *robj.Object) error { time.Sleep(time.Millisecond); return nil }
	spec.Finalize = func(r *Result) error { return nil }
	combineBefore := obs.Default.Value("freeride_phase_ns_total", obs.Label{Key: "phase", Value: PhaseCombine})
	res, err := eng.RunContext(context.Background(), spec, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, r := range res.Stats.Spans {
		names[r.Name] = true
	}
	for _, want := range []string{PhaseCombine, PhaseFinalize} {
		if !names[want] {
			t.Fatalf("missing %q span in %v", want, names)
		}
	}
	delta := obs.Default.Value("freeride_phase_ns_total", obs.Label{Key: "phase", Value: PhaseCombine}) - combineBefore
	if delta < int64(time.Millisecond) {
		t.Fatalf("combine phase counter delta %dns, want >= 1ms", delta)
	}
	// Exactly the phases a pass records are exposed: the cluster's global
	// combine is a span only, so it must not scrape as a permanent zero.
	var prom strings.Builder
	if err := obs.Default.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, p := range phases() {
		if !strings.Contains(prom.String(), `freeride_phase_ns_total{phase="`+p+`"}`) {
			t.Fatalf("phase %q has no counter on /metrics", p)
		}
	}
	if strings.Contains(prom.String(), `phase="`+PhaseGlobalCombine+`"`) {
		t.Fatalf("%q has no writer but is exposed as a phase counter", PhaseGlobalCombine)
	}
}
