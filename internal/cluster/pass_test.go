package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
)

// TestPublishNodeDeltas: shipped node deltas land on the process registry
// under the cluster_node_ prefix with the node appended to their labels, and
// repeated publications fold into the same counters.
func TestPublishNodeDeltas(t *testing.T) {
	c := New(Config{Nodes: 4})
	deltas := []obs.MetricDelta{
		{Name: "publish_test_rows_total", Value: 42},
		{Name: "publish_test_phase_ns_total", Labels: []obs.Label{{Key: "phase", Value: "reduce"}}, Value: 7},
	}
	c.publishNodeDeltas(3, deltas)
	c.publishNodeDeltas(3, deltas)
	node3 := obs.Label{Key: "node", Value: "3"}
	if got := obs.Default.Value("cluster_node_publish_test_rows_total", node3); got != 84 {
		t.Errorf("cluster_node_publish_test_rows_total{node=3} = %d, want 84", got)
	}
	got := obs.Default.Value("cluster_node_publish_test_phase_ns_total", obs.Label{Key: "phase", Value: "reduce"}, node3)
	if got != 14 {
		t.Errorf("labeled node delta = %d, want 14", got)
	}
	if got := obs.Default.Value("cluster_node_publish_test_rows_total", obs.Label{Key: "node", Value: "2"}); got != 0 {
		t.Errorf("node 3's delta reached node 2's counter (%d)", got)
	}
	// A second session resolves the same registry counters.
	New(Config{Nodes: 4}).publishNodeDeltas(3, deltas[:1])
	if got := obs.Default.Value("cluster_node_publish_test_rows_total", node3); got != 126 {
		t.Errorf("after a second session's publication = %d, want 126", got)
	}
}

// TestFailedPassReleasesObjects: a pass that fails after node passes
// finished hands each finished node's reduction object back to its engine's
// pool, so the good pass after it draws every object from the pools.
func TestFailedPassReleasesObjects(t *testing.T) {
	const buckets = 4
	src := dataset.NewMemorySource(bucketData(1000, buckets))
	errRefused := errors.New("refused")
	for _, tr := range []Transport{InProcess, TCP} {
		t.Run(tr.String(), func(t *testing.T) {
			c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}, Transport: tr})
			defer c.Close()
			pass := func(spec freeride.Spec) error {
				res, err := c.RunContext(context.Background(), spec, src)
				if err != nil {
					return err
				}
				return c.Release(res)
			}
			misses := func() int64 { return obs.Default.Value("robj_pool_misses_total") }
			if err := pass(histSpec(buckets)); err != nil { // warm both pools
				t.Fatal(err)
			}

			// Every node finished; the coordinator's finalize fails.
			finalizeFails := histSpec(buckets)
			finalizeFails.Finalize = func(*freeride.Result) error { return errRefused }
			before := misses()
			if err := pass(finalizeFails); !errors.Is(err, errRefused) {
				t.Fatalf("failing finalize returned %v", err)
			}
			if err := pass(histSpec(buckets)); err != nil {
				t.Fatal(err)
			}
			if d := misses() - before; d != 0 {
				t.Fatalf("a failed pass and the good one after it missed the pools %d times, want 0", d)
			}

			// Node 0 finished; node 1's reduction fails. The failing node's
			// engine drops its own un-merged object, so at most that one
			// object is drawn fresh afterwards.
			nodeFails := histSpec(buckets)
			inner := nodeFails.Reduction
			nodeFails.Reduction = func(a *freeride.ReductionArgs) error {
				if a.Begin >= 500 {
					return errRefused
				}
				return inner(a)
			}
			before = misses()
			if err := pass(nodeFails); !errors.Is(err, errRefused) {
				t.Fatalf("failing node returned %v", err)
			}
			if err := pass(histSpec(buckets)); err != nil {
				t.Fatal(err)
			}
			if d := misses() - before; d > 1 {
				t.Fatalf("after node 1 failed the next pass missed the pools %d times, want at most 1 (node 1's own)", d)
			}
		})
	}
}

// TestClusterConcurrentPasses runs passes from several goroutines on one
// session: in-process passes overlap (sharing the node engines and the
// node-counter cache), TCP passes queue for the mesh. Every pass must give
// the single-node answer. Run it under -race.
func TestClusterConcurrentPasses(t *testing.T) {
	const buckets, workers, passes = 4, 4, 5
	m := bucketData(2000, buckets)
	want := expected(m, buckets)
	src := dataset.NewMemorySource(m)
	for _, tr := range []Transport{InProcess, TCP} {
		t.Run(tr.String(), func(t *testing.T) {
			c := New(Config{Nodes: 3, PerNode: freeride.Config{Threads: 2}, Transport: tr})
			defer c.Close()
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				go func() {
					for p := 0; p < passes; p++ {
						res, err := c.RunContext(context.Background(), histSpec(buckets), src)
						if err != nil {
							errs <- err
							return
						}
						if got := slices.Clone(res.Object.Snapshot()); !slices.Equal(got, want) {
							errs <- fmt.Errorf("pass gave %v, want %v", got, want)
							return
						}
						if err := c.Release(res); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}()
			}
			for w := 0; w < workers; w++ {
				if err := <-errs; err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestClusterStatsOwnedAcrossPasses pins the reuse rule of the TCP path: the
// mesh decodes each pass's spans into scratch it reuses, so everything a
// Result or the event log holds must be the pass's own. Pass 1's spans,
// node deltas and event-log entry read the same after pass 2.
func TestClusterStatsOwnedAcrossPasses(t *testing.T) {
	c := New(Config{Nodes: 3, PerNode: freeride.Config{Threads: 2, SplitRows: 64}, Transport: TCP})
	defer c.Close()
	res1, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(bucketData(3000, 4)))
	if err != nil {
		t.Fatal(err)
	}
	st := res1.Stats
	spans := slices.Clone(st.Spans)
	deltas := make([][]obs.MetricDelta, len(st.NodeDeltas))
	for n, ds := range st.NodeDeltas {
		for _, d := range ds {
			d.Labels = slices.Clone(d.Labels)
			deltas[n] = append(deltas[n], d)
		}
	}
	logged := loggedRun(t, st.Job)
	if err := c.Release(res1); err != nil {
		t.Fatal(err)
	}

	// The same pass shape over more rows: same-sized spans and deltas with
	// other values land in any buffer the mesh reuses.
	res2, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(bucketData(5000, 4)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(res2)

	if !slices.Equal(st.Spans, spans) {
		t.Error("pass 2 rewrote pass 1's Stats.Spans")
	}
	for n := range deltas {
		if !slices.EqualFunc(st.NodeDeltas[n], deltas[n], func(a, b obs.MetricDelta) bool {
			return a.Name == b.Name && a.Value == b.Value && slices.Equal(a.Labels, b.Labels)
		}) {
			t.Errorf("pass 2 rewrote pass 1's Stats.NodeDeltas[%d]", n)
		}
	}
	if again := loggedRun(t, st.Job); !bytes.Equal(again, logged) {
		t.Errorf("pass 2 rewrote pass 1's event-log entry:\n before %s\n after  %s", logged, again)
	}
}

// loggedRun returns the JSON of the cluster run obs.Log holds for job (the
// coordinator's merged run, the one carrying node-attributed spans).
func loggedRun(t *testing.T, job obs.JobID) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Log.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Job   uint64          `json:"job"`
			Spans json.RawMessage `json:"spans"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for i := len(doc.Runs) - 1; i >= 0; i-- {
		r := doc.Runs[i]
		if r.Job == uint64(job) && bytes.Contains(r.Spans, []byte(`"cluster-run"`)) {
			return r.Spans
		}
	}
	t.Fatalf("event log holds no cluster run for job %d", job)
	return nil
}
