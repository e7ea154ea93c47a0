package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The harness records spans from its own files, around the calls into each
// layer's public functions; the program under test is not instrumented.
// Spans of one job share its id, name their parent, and stay in memory until
// the run ends. A nil *tracer records nothing, so the same job code runs
// traced and untraced.

// Layers a span can be charged to: the repo's module names, plus "client"
// for the load generator's own request encoding and response decoding.
var traceLayers = []string{"dataset", "core", "freeride", "cluster", "serve", "apps", "client"}

const rootLayer = "job"

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a job's root span
	Job    int     `json:"job"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(job, parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Layer: layer, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured child interval ending now: the way a cost
// a layer reports about itself (core's LinearizeTime inside TranslateWith)
// becomes a span without instrumenting the layer.
func (t *tracer) add(job, parent int, layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Job: job, Layer: layer, Name: name,
		Start: now - d.Seconds(), End: now})
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of the spans: a span's
// duration minus the part of it its children cover (the union of their
// intervals, so concurrent children are not subtracted twice).
func (t *tracer) selfTimes() map[string]float64 {
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += (s.End - s.Start) - covered
	}
	return self
}

// medianSpan is the median duration, in seconds, of the spans called name;
// 0 when there are none.
func (t *tracer) medianSpan(name string) float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, s.End-s.Start)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jobTrace is one job's view of the tracer: spans opened through it nest by
// call order (push/pop on the job's own goroutine). The zero value and a
// jobTrace over a nil tracer record nothing.
type jobTrace struct {
	t     *tracer
	job   int
	stack []int
}

// startJob opens job's root span.
func (t *tracer) startJob(job int) *jobTrace {
	jt := &jobTrace{t: t, job: job}
	jt.push(rootLayer, "job")
	return jt
}

func (j *jobTrace) parent() int {
	if len(j.stack) == 0 {
		return -1
	}
	return j.stack[len(j.stack)-1]
}

func (j *jobTrace) push(layer, name string) {
	if j.t == nil {
		return
	}
	j.stack = append(j.stack, j.t.begin(j.job, j.parent(), layer, name))
}

func (j *jobTrace) pop() {
	if j.t == nil {
		return
	}
	j.t.end(j.stack[len(j.stack)-1])
	j.stack = j.stack[:len(j.stack)-1]
}

// child records an already-measured interval that ended just now under the
// span currently open.
func (j *jobTrace) child(layer, name string, d time.Duration) {
	j.t.add(j.job, j.parent(), layer, name, d)
}
