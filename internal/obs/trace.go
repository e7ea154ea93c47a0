package obs

import (
	"cmp"
	"encoding/json"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one finished span of a Trace: a named interval with an
// optional parent (nesting) and an optional worker id.
type SpanRecord struct {
	// ID is the span's id within its trace, starting at 1.
	ID int64
	// Parent is the enclosing span's ID, or 0 for root spans.
	Parent int64
	// Name is the phase name (e.g. "reduce", "local-combine").
	Name string
	// Worker is the worker id the span ran on, or -1 when not worker-bound.
	Worker int
	// Node is the cluster node the span ran on, or -1 when the span is
	// local (single-engine passes, coordinator-side spans). Only cluster
	// timeline merging (MergeNodeSpans) assigns node ids.
	Node int
	// Start is the span's begin time as an offset from the trace's start.
	Start time.Duration
	// Dur is the span's duration.
	Dur time.Duration
}

// Trace collects the spans of one engine pass. Spans may begin and end from
// any goroutine. A nil *Trace is a valid no-op receiver, as is a nil *Span,
// so tracing call sites never branch.
type Trace struct {
	begin time.Time
	limit int
	next  atomic.Int64

	mu   sync.Mutex
	recs []SpanRecord
	// inline backs recs for the first spans, so the trace of a typical
	// pass (a handful of phase and worker spans) is a single allocation.
	inline [traceInline]SpanRecord
}

// traceSpanLimit bounds the spans one trace retains; beyond it spans are
// counted as dropped rather than accumulated without bound.
const traceSpanLimit = 1 << 16

// traceInline is how many spans a trace holds before its record list
// spills to the heap.
const traceInline = 8

// NewTrace starts an empty trace whose clock begins now.
func NewTrace() *Trace {
	t := &Trace{begin: time.Now(), limit: traceSpanLimit}
	t.recs = t.inline[:0]
	return t
}

// Elapsed reports the time since the trace's clock began — the offset a
// span started now would get. Cluster coordination uses it to re-base
// node-local span offsets onto the coordinator clock.
func (t *Trace) Elapsed() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.begin)
}

// mTraceDropped counts span events lost to retention bounds anywhere in the
// trace pipeline: spans beyond one trace's limit and spans of runs evicted
// from the event-log ring. Both bounds previously dropped silently; the
// counter makes the loss visible on the metrics endpoint and in the human
// report.
var mTraceDropped = Default.Counter("obs_trace_events_dropped_total",
	"trace span events dropped by retention bounds (per-trace span limit + event-log ring eviction)")

// Span is an in-flight interval of a Trace. End it exactly once; extra Ends
// are ignored.
type Span struct {
	tr     *Trace
	id     int64
	parent int64
	name   string
	worker int
	start  time.Time
	ended  atomic.Bool
}

func (t *Trace) span(name string, parent int64) *Span {
	if t == nil {
		return nil
	}
	return &Span{tr: t, id: t.next.Add(1), parent: parent, name: name, worker: -1, start: time.Now()}
}

// Start begins a root span.
func (t *Trace) Start(name string) *Span { return t.span(name, 0) }

// Child begins a span nested under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.span(name, s.id)
}

// ID reports the span's id within its trace (0 for a nil span) — the handle
// timeline merging uses to parent shipped node spans under their
// coordinator span.
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SetWorker tags the span with a worker id. Call before End.
func (s *Span) SetWorker(w int) {
	if s != nil {
		s.worker = w
	}
}

// End finishes the span and records it in the trace.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Worker: s.worker,
		Node:   -1,
		Start:  s.start.Sub(s.tr.begin),
		Dur:    time.Since(s.start),
	}
	t := s.tr
	t.mu.Lock()
	if len(t.recs) < t.limit {
		t.recs = append(t.recs, rec)
	} else {
		mTraceDropped.Inc()
	}
	t.mu.Unlock()
}

// Finish hands the finished spans over without copying them, sorted by
// start offset (ties by id). The trace forgets them: the returned slice is the caller's alone,
// and a span that ends afterwards (a straggler of an abandoned pass) starts
// a fresh record list that never aliases it. Call it once, when the pass the
// trace covers is over.
func (t *Trace) Finish() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.recs
	t.recs = nil
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// sortSpans orders span records by start offset, ties by id — the order
// Finish and MergeNodeSpans return.
func sortSpans(recs []SpanRecord) {
	slices.SortFunc(recs, func(a, b SpanRecord) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.ID, b.ID)
	})
}

// EventLog is a process-wide ring of recent traces (one entry per engine
// pass), exported as JSON from the metrics endpoint's /trace. The ring is
// allocated once: adding a run overwrites the oldest slot in place.
type EventLog struct {
	mu      sync.Mutex
	nextRun int64
	ring    []logEntry
	head    int // slot of the oldest retained run
	n       int // retained runs
	dropped int64
}

type logEntry struct {
	run   int64
	job   JobID
	spans []SpanRecord
}

// NewEventLog creates a log retaining the most recent limit runs.
func NewEventLog(limit int) *EventLog {
	if limit < 1 {
		limit = 1
	}
	return &EventLog{ring: make([]logEntry, limit)}
}

// Log is the process-wide event log the engine appends every pass to.
var Log = NewEventLog(512)

// AddRun is Add with a job attribution, so the exported event log maps runs
// back to the jobs that produced them.
func (l *EventLog) AddRun(job JobID, spans []SpanRecord) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextRun++
	e := logEntry{run: l.nextRun, job: job, spans: spans}
	if l.n < len(l.ring) {
		l.ring[(l.head+l.n)%len(l.ring)] = e
		l.n++
		return l.nextRun
	}
	mTraceDropped.Add(int64(len(l.ring[l.head].spans)))
	l.ring[l.head] = e
	l.head = (l.head + 1) % len(l.ring)
	l.dropped++
	return l.nextRun
}

// Len reports the number of retained runs.
func (l *EventLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// jsonSpan is the event-log export shape: offsets and durations in
// microseconds, worker -1 meaning "not worker-bound".
type jsonSpan struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	Worker  int     `json:"worker"`
	Node    int     `json:"node"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

type jsonRun struct {
	Run   int64      `json:"run"`
	Job   uint64     `json:"job,omitempty"`
	Spans []jsonSpan `json:"spans"`
}

type jsonLog struct {
	DroppedRuns int64     `json:"dropped_runs"`
	Runs        []jsonRun `json:"runs"`
}

// WriteJSON writes the retained runs as one JSON document.
func (l *EventLog) WriteJSON(w io.Writer) error {
	l.mu.Lock()
	doc := jsonLog{DroppedRuns: l.dropped, Runs: make([]jsonRun, 0, l.n)}
	for i := 0; i < l.n; i++ {
		e := l.ring[(l.head+i)%len(l.ring)]
		jr := jsonRun{Run: e.run, Job: uint64(e.job), Spans: make([]jsonSpan, 0, len(e.spans))}
		for _, s := range e.spans {
			jr.Spans = append(jr.Spans, jsonSpan{
				ID:      s.ID,
				Parent:  s.Parent,
				Name:    s.Name,
				Worker:  s.Worker,
				Node:    s.Node,
				StartUS: float64(s.Start) / float64(time.Microsecond),
				DurUS:   float64(s.Dur) / float64(time.Microsecond),
			})
		}
		doc.Runs = append(doc.Runs, jr)
	}
	l.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
