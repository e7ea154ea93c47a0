package obs

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Job-scoped observability. Process-wide counters answer "what has this
// process done since it started"; a service multiplexing concurrent jobs
// onto shared engine sessions also needs "what did job N cost, exactly". A
// JobID is minted per engine submission (NextJobID) or handed in on the
// context (WithJob), carried through the run (RunContext → trace → event
// log), and every per-job increment is recorded twice: once into the global
// registry and once into the job's JobMetrics — so concurrent jobs on one
// session never blur into each other's deltas.
// CounterSnapshot/Diff give the same interval semantics over the whole
// registry for callers that own the process (benchmarks, tests).

// JobID identifies one engine or cluster submission. IDs are process-unique
// and monotonically increasing; 0 means "no job attributed".
type JobID uint64

var jobIDs atomic.Uint64

// NextJobID mints a process-unique job id.
func NextJobID() JobID { return JobID(jobIDs.Add(1)) }

// jobKey is the context key WithJob stores a job id under.
type jobKey struct{}

// WithJob returns a copy of ctx carrying job id: an engine pass run under it
// attributes its trace, event-log entry and counter deltas to id instead of
// minting its own — how a coordinator runs several node passes as one job.
func WithJob(ctx context.Context, id JobID) context.Context {
	return context.WithValue(ctx, jobKey{}, id)
}

// JobFrom returns the job id ctx carries, or 0 when it carries none.
func JobFrom(ctx context.Context) JobID {
	id, _ := ctx.Value(jobKey{}).(JobID)
	return id
}

// MetricDelta is one named counter delta attributed to a job (or shipped
// from a cluster node, whose mesh frames carry each field as-is).
type MetricDelta struct {
	// Name is the metric family name.
	Name string
	// Labels is the structured label set (may be empty).
	Labels []Label
	// Value is the counted delta.
	Value int64
}

// Key returns the delta's registry-style key: family name plus rendered
// label set.
func (d MetricDelta) Key() string { return d.Name + renderLabels(d.Labels) }

// JobMetrics collects one job's exact counter deltas. The engine routes
// each per-job increment here in addition to the global counter; Snapshot
// and Finish read them back. All methods are safe for concurrent
// use and a nil *JobMetrics is a valid no-op receiver, so recording sites
// never branch.
type JobMetrics struct {
	id JobID

	mu sync.Mutex
	// ds is kept sorted by key (name plus rendered labels), so handing the
	// deltas over needs no sort; keys caches those keys for the sorted
	// insert of a new entry.
	ds   []MetricDelta
	keys []string
	// inline and inlineKeys back ds and keys for the first entries, so a
	// pass's job metrics are a single allocation.
	inline     [jobInline]MetricDelta
	inlineKeys [jobInline]string
}

// jobInline covers the counter families one engine pass records (at most
// eleven: runs, splits, rows, busy time, fused flushes and rows, and one per
// phase).
const jobInline = 12

// NewJobMetrics creates an empty per-job counter set.
func NewJobMetrics(id JobID) *JobMetrics {
	j := &JobMetrics{id: id}
	j.ds, j.keys = j.inline[:0], j.inlineKeys[:0]
	return j
}

// Add accumulates n into the job's delta for name+labels. The entry count is
// small and bounded (one per engine counter family), so lookup is a linear
// scan comparing name and labels as they are — no map, no rendered key, and
// no allocation once the entry exists (the labels are copied, never
// retained, so callers' variadic label slices stay on their stacks).
func (j *JobMetrics) Add(name string, n int64, labels ...Label) {
	if j == nil || n == 0 {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for i := range j.ds {
		if d := &j.ds[i]; d.Name == name && slices.Equal(d.Labels, labels) {
			d.Value += n
			return
		}
	}
	key := name
	var own []Label
	if len(labels) > 0 {
		key = name + renderLabels(labels)
		own = slices.Clone(labels)
	}
	at, _ := slices.BinarySearch(j.keys, key)
	j.ds = slices.Insert(j.ds, at, MetricDelta{Name: name, Labels: own, Value: n})
	j.keys = slices.Insert(j.keys, at, key)
}

// Finish hands the job's counter deltas over without copying them, sorted
// by key — ready to attach to a Result, ship over the cluster mesh, or feed
// the auto-tuner. The set forgets them: the returned slice is the caller's
// alone, and a later Add starts a fresh set. Call it once, when the job is
// over.
func (j *JobMetrics) Finish() []MetricDelta {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.ds
	j.ds, j.keys = nil, nil
	return out
}

// CounterSnapshot is a point-in-time reading of counters, keyed by family
// name plus rendered label set.
type CounterSnapshot map[string]int64

// CounterSnapshot reads every registered counter (gauges and histograms are
// excluded: deltas of instantaneous or bucketed readings have no counter
// semantics).
func (r *Registry) CounterSnapshot() CounterSnapshot {
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	out := make(CounterSnapshot, len(ms))
	for _, m := range ms {
		if m.c != nil {
			out[m.family+m.labels] = m.c.Value()
		}
	}
	return out
}

// Diff returns the counters that changed since prev as key → delta. Counters
// absent from prev (registered since) diff against zero.
func (s CounterSnapshot) Diff(prev CounterSnapshot) CounterSnapshot {
	out := CounterSnapshot{}
	for k, v := range s {
		if d := v - prev[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// NodeSpans is one node's contribution to a merged cluster timeline: the
// spans its engine pass recorded, the node id to attribute them to, the
// offset of that pass's start on the coordinator's clock, and the
// coordinator span to parent the node's root spans under.
type NodeSpans struct {
	// Node is the node id the spans ran on.
	Node int
	// Offset is the node pass's start relative to the coordinator trace's
	// start; node-local span offsets are re-based by it.
	Offset time.Duration
	// Parent is the coordinator span id the node's root spans nest under
	// (0 to keep them roots).
	Parent int64
	// Spans are the node pass's records, with node-local ids and offsets.
	Spans []SpanRecord
}

// MergeNodeSpans builds one node-attributed timeline from the coordinator's
// own spans plus each node's shipped spans: node span ids are re-based past
// the largest id in use so they stay unique, offsets move onto the
// coordinator clock, parents are preserved within a node (roots re-parent to
// the node's coordinator span), and every node span gets its node id. The
// result is one fresh slice sized up front, sorted like Trace.Finish.
func MergeNodeSpans(coordinator []SpanRecord, nodes []NodeSpans) []SpanRecord {
	total := len(coordinator)
	for _, n := range nodes {
		total += len(n.Spans)
	}
	out := make([]SpanRecord, 0, total)
	var maxID int64
	for _, r := range coordinator {
		if r.ID > maxID {
			maxID = r.ID
		}
		out = append(out, r)
	}
	for _, n := range nodes {
		base := maxID
		for _, r := range n.Spans {
			if base+r.ID > maxID {
				maxID = base + r.ID
			}
			r.ID += base
			if r.Parent != 0 {
				r.Parent += base
			} else {
				r.Parent = n.Parent
			}
			r.Start += n.Offset
			r.Node = n.Node
			out = append(out, r)
		}
	}
	sortSpans(out)
	return out
}
