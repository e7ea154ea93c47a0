package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNextJobIDUnique(t *testing.T) {
	const n = 100
	ids := make(chan JobID, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); ids <- NextJobID() }()
	}
	wg.Wait()
	close(ids)
	seen := map[JobID]bool{}
	for id := range ids {
		if id == 0 {
			t.Fatal("minted the reserved zero job id")
		}
		if seen[id] {
			t.Fatalf("job id %d minted twice", id)
		}
		seen[id] = true
	}
}

func TestJobMetricsDeltas(t *testing.T) {
	jm := NewJobMetrics(NextJobID())
	jm.Add("rows_total", 5)
	jm.Add("rows_total", 3)
	jm.Add("phase_ns_total", 100, Label{Key: "phase", Value: "reduce"})
	jm.Add("phase_ns_total", 50, Label{Key: "phase", Value: "split"})
	jm.Add("noop_total", 0) // zero increments record nothing

	snap := jobSnapshot(jm)
	if snap["rows_total"] != 8 {
		t.Errorf("rows_total = %d, want 8", snap["rows_total"])
	}
	if snap[`phase_ns_total{phase="reduce"}`] != 100 {
		t.Errorf("labeled delta = %d, want 100", snap[`phase_ns_total{phase="reduce"}`])
	}
	ds := jm.Finish()
	if len(ds) != 3 {
		t.Fatalf("got %d deltas, want 3: %+v", len(ds), ds)
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Key() >= ds[i].Key() {
			t.Errorf("deltas not sorted: %q before %q", ds[i-1].Key(), ds[i].Key())
		}
	}
	if len(jobSnapshot(jm)) != 0 {
		t.Error("Finish left the deltas in the set")
	}

	var nilJM *JobMetrics
	nilJM.Add("x_total", 1) // must not panic
	if nilJM.Finish() != nil {
		t.Error("nil JobMetrics not a no-op")
	}
}

func TestJobMetricsConcurrent(t *testing.T) {
	jm := NewJobMetrics(NextJobID())
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				jm.Add("shared_total", 1)
				jm.Add("per_worker_total", 1, Label{Key: "w", Value: fmt.Sprint(w % 2)})
			}
		}(w)
	}
	wg.Wait()
	snap := jobSnapshot(jm)
	if snap["shared_total"] != workers*per {
		t.Errorf("shared_total = %d, want %d", snap["shared_total"], workers*per)
	}
	if got := snap[`per_worker_total{w="0"}`] + snap[`per_worker_total{w="1"}`]; got != workers*per {
		t.Errorf("labeled sum = %d, want %d", got, workers*per)
	}
}

func TestCounterSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("a_total", "")
	b := r.Counter("b_total", "", Label{Key: "k", Value: "v"})
	a.Add(10)
	before := r.CounterSnapshot()
	a.Add(5)
	b.Add(7)
	r.Counter("c_total", "").Add(3) // registered after the snapshot
	diff := r.CounterSnapshot().Diff(before)
	want := CounterSnapshot{"a_total": 5, `b_total{k="v"}`: 7, "c_total": 3}
	if len(diff) != len(want) {
		t.Fatalf("diff = %v, want %v", diff, want)
	}
	for k, v := range want {
		if diff[k] != v {
			t.Errorf("diff[%q] = %d, want %d", k, diff[k], v)
		}
	}
}

func TestMergeNodeSpans(t *testing.T) {
	coord := []SpanRecord{
		{ID: 1, Parent: 0, Name: "cluster-run", Worker: -1, Node: -1, Start: 0, Dur: 100 * time.Millisecond},
		{ID: 2, Parent: 1, Name: "node-0", Worker: -1, Node: -1, Start: time.Millisecond, Dur: 40 * time.Millisecond},
		{ID: 3, Parent: 1, Name: "node-1", Worker: -1, Node: -1, Start: time.Millisecond, Dur: 60 * time.Millisecond},
	}
	nodes := []NodeSpans{
		{Node: 0, Offset: time.Millisecond, Parent: 2, Spans: []SpanRecord{
			{ID: 1, Parent: 0, Name: "run", Worker: -1, Node: -1, Start: 0, Dur: 39 * time.Millisecond},
			{ID: 2, Parent: 1, Name: "reduce", Worker: 0, Node: -1, Start: time.Millisecond, Dur: 30 * time.Millisecond},
		}},
		{Node: 1, Offset: 2 * time.Millisecond, Parent: 3, Spans: []SpanRecord{
			{ID: 1, Parent: 0, Name: "run", Worker: -1, Node: -1, Start: 0, Dur: 55 * time.Millisecond},
		}},
	}
	merged := MergeNodeSpans(coord, nodes)
	if len(merged) != 6 {
		t.Fatalf("merged %d spans, want 6", len(merged))
	}
	// IDs must stay unique after re-basing.
	ids := map[int64]bool{}
	byName := map[string]SpanRecord{}
	for _, r := range merged {
		if ids[r.ID] {
			t.Fatalf("duplicate span id %d after merge", r.ID)
		}
		ids[r.ID] = true
		key := fmt.Sprintf("%s/node%d", r.Name, r.Node)
		byName[key] = r
	}
	// Node 0's root re-parents under coordinator span 2, offset re-based.
	n0run := byName["run/node0"]
	if n0run.Parent != 2 {
		t.Errorf("node 0 root parent = %d, want 2", n0run.Parent)
	}
	if n0run.Start != time.Millisecond {
		t.Errorf("node 0 root start = %v, want 1ms", n0run.Start)
	}
	// Node 0's child keeps its internal parent link (now re-based onto the
	// same id as its re-based root).
	n0reduce := byName["reduce/node0"]
	if n0reduce.Parent != n0run.ID {
		t.Errorf("node 0 child parent = %d, want its root %d", n0reduce.Parent, n0run.ID)
	}
	if n0reduce.Worker != 0 {
		t.Errorf("node 0 child worker = %d, want 0 (preserved)", n0reduce.Worker)
	}
	// Node 1's root re-parents under coordinator span 3 with its own offset.
	n1run := byName["run/node1"]
	if n1run.Parent != 3 || n1run.Start != 2*time.Millisecond {
		t.Errorf("node 1 root = parent %d start %v, want parent 3 start 2ms", n1run.Parent, n1run.Start)
	}
	// Coordinator spans stay local (-1); node spans carry their node id.
	if byName["cluster-run/node-1"].Node != -1 {
		t.Error("coordinator span lost its local node marker")
	}
	// Sorted by start offset.
	for i := 1; i < len(merged); i++ {
		if merged[i-1].Start > merged[i].Start {
			t.Errorf("merged spans not sorted at %d", i)
		}
	}
}

// jobSnapshot returns the job's deltas as a CounterSnapshot, so job-scoped and
// registry-scoped readings diff with the same API.
func jobSnapshot(j *JobMetrics) CounterSnapshot {
	if j == nil {
		return CounterSnapshot{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(CounterSnapshot, len(j.ds))
	for i, d := range j.ds {
		out[j.keys[i]] = d.Value
	}
	return out
}
