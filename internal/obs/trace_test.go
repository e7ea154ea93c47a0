package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTrace()
	run := tr.Start("run")
	split := run.Child("split")
	time.Sleep(time.Millisecond)
	split.End()
	reduce := run.Child("reduce")
	w0 := reduce.Child("worker")
	w0.SetWorker(0)
	time.Sleep(time.Millisecond)
	w0.End()
	reduce.End()
	run.End()

	// phaseTotal reads the live trace, so it goes before Finish.
	if got := phaseTotal(tr, "split"); got < time.Millisecond {
		t.Fatalf("phaseTotal(split) = %v, want >= 1ms", got)
	}
	recs := tr.Finish()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name] = r
	}
	if byName["split"].Parent != byName["run"].ID {
		t.Fatal("split must nest under run")
	}
	if byName["worker"].Parent != byName["reduce"].ID {
		t.Fatal("worker must nest under reduce")
	}
	if byName["worker"].Worker != 0 {
		t.Fatalf("worker id = %d, want 0", byName["worker"].Worker)
	}
	if byName["split"].Worker != -1 {
		t.Fatalf("unbound span worker = %d, want -1", byName["split"].Worker)
	}
	// Finished spans are sorted by start offset; run began first.
	if recs[0].Name != "run" {
		t.Fatalf("first record = %q, want run", recs[0].Name)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Start < recs[i-1].Start {
			t.Fatal("records not sorted by start offset")
		}
	}
	// Children lie within their parents' intervals.
	for _, child := range []string{"split", "reduce"} {
		c, p := byName[child], byName["run"]
		if c.Start < p.Start || c.Start+c.Dur > p.Start+p.Dur {
			t.Fatalf("%s [%v,%v) escapes run [%v,%v)", child, c.Start, c.Start+c.Dur, p.Start, p.Start+p.Dur)
		}
	}
	if got := phaseTotal(tr, "split"); got != 0 {
		t.Fatalf("phaseTotal after Finish = %v, want 0: the spans were handed over", got)
	}
}

func TestSpanConcurrentEnd(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := root.Child("worker")
			s.SetWorker(w)
			s.End()
			s.End() // double End must be a no-op
		}(w)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Finish()); got != 9 {
		t.Fatalf("got %d records, want 9", got)
	}
}

func TestNilTraceAndSpan(t *testing.T) {
	var tr *Trace
	s := tr.Start("x")
	s.SetWorker(1)
	c := s.Child("y")
	c.End()
	s.End()
	if tr.Finish() != nil {
		t.Fatal("nil trace must be inert")
	}
}

func TestTraceSpanLimit(t *testing.T) {
	tr := NewTrace()
	tr.limit = 2
	before := mTraceDropped.Value()
	for i := 0; i < 5; i++ {
		tr.Start("s").End()
	}
	if got := len(tr.Finish()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if got := mTraceDropped.Value() - before; got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
}

func TestEventLogJSONAndRing(t *testing.T) {
	l := NewEventLog(2)
	mk := func(name string) []SpanRecord {
		return []SpanRecord{{ID: 1, Name: name, Worker: -1, Start: 0, Dur: 2 * time.Microsecond}}
	}
	l.AddRun(0, mk("a"))
	l.AddRun(0, mk("b"))
	l.AddRun(0, mk("c")) // evicts "a"
	if l.Len() != 2 {
		t.Fatalf("log retains %d runs, want 2", l.Len())
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DroppedRuns int64 `json:"dropped_runs"`
		Runs        []struct {
			Run   int64 `json:"run"`
			Spans []struct {
				Name  string  `json:"name"`
				DurUS float64 `json:"dur_us"`
			} `json:"spans"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("event log is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DroppedRuns != 1 || len(doc.Runs) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Runs[0].Spans[0].Name != "b" || doc.Runs[1].Spans[0].Name != "c" {
		t.Fatalf("wrong runs retained: %+v", doc.Runs)
	}
	if doc.Runs[0].Spans[0].DurUS != 2 {
		t.Fatalf("dur_us = %v, want 2", doc.Runs[0].Spans[0].DurUS)
	}
}

// phaseTotal sums the duration of every span with the given name that the
// trace still holds (none once Finish has handed them over).
func phaseTotal(t *Trace, name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum time.Duration
	for _, r := range t.recs {
		if r.Name == name {
			sum += r.Dur
		}
	}
	return sum
}
