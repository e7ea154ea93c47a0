package cluster

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

func obsSumSpec() freeride.Spec {
	return freeride.Spec{
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			var s float64
			for _, v := range a.Data {
				s += v
			}
			a.Accumulate(0, 0, s)
			return nil
		},
	}
}

// TestClusterObservabilityTCP is the tentpole acceptance test: a TCP cluster
// pass must mint one job id that crosses the mesh to every node, ship each
// node's spans and counter deltas back with its object, and leave the
// coordinator with a merged node-attributed timeline plus node-labeled
// counters on the process registry — all from one coordinator-side scrape.
func TestClusterObservabilityTCP(t *testing.T) {
	const nodes, rows = 3, 3000
	c := New(Config{
		Nodes:     nodes,
		PerNode:   freeride.Config{Threads: 2, SplitRows: 64},
		Transport: TCP,
	})
	defer c.Close()

	src := dataset.NewMemorySource(dataset.UniformMatrix(rows, 2, 7, 0, 1))
	res, err := c.RunContext(context.Background(), obsSumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats

	if st.Job == 0 {
		t.Fatal("cluster pass minted no job id")
	}
	if len(st.NodeDeltas) != nodes {
		t.Fatalf("NodeDeltas for %d nodes, want %d", len(st.NodeDeltas), nodes)
	}

	// Exactness: the shipped per-node row deltas must sum to the dataset —
	// nothing lost or double-counted crossing the mesh.
	var totalRows int64
	for n, ds := range st.NodeDeltas {
		var nodeRows int64
		for _, d := range ds {
			if d.Name == "freeride_rows_total" {
				nodeRows = d.Value
			}
		}
		if nodeRows != int64(st.NodeRows[n]) {
			t.Errorf("node %d shipped %d rows, partition says %d", n, nodeRows, st.NodeRows[n])
		}
		totalRows += nodeRows
	}
	if totalRows != rows {
		t.Errorf("shipped row deltas sum to %d, want %d", totalRows, rows)
	}

	// Merged timeline: coordinator spans stay node -1; every node must have
	// attributed spans, re-based within the coordinator's run span.
	if len(st.Spans) == 0 {
		t.Fatal("no merged timeline")
	}
	var rootDur int64
	perNode := map[int]int{}
	for _, sp := range st.Spans {
		perNode[sp.Node]++
		if sp.Name == "cluster-run" {
			rootDur = int64(sp.Dur)
		}
	}
	if perNode[-1] == 0 {
		t.Error("merged timeline has no coordinator spans")
	}
	for n := 0; n < nodes; n++ {
		if perNode[n] == 0 {
			t.Errorf("merged timeline has no spans attributed to node %d", n)
		}
	}
	if rootDur == 0 {
		t.Error("merged timeline is missing the coordinator root span")
	}
	ids := map[int64]bool{}
	for _, sp := range st.Spans {
		if ids[sp.ID] {
			t.Fatalf("merged timeline has duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = true
		if sp.Parent != 0 && !ids[sp.Parent] && sp.Start > 0 {
			// Parents sort before children only when starts differ; a
			// missing parent id entirely is the real defect.
			found := false
			for _, q := range st.Spans {
				if q.ID == sp.Parent {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("span %d references missing parent %d", sp.ID, sp.Parent)
			}
		}
	}

	// Coordinator-side scrape: the node-labeled view must be on the process
	// registry under the cluster_node_ prefix.
	for n := 0; n < nodes; n++ {
		got := obs.Default.Value("cluster_node_freeride_rows_total", obs.Label{Key: "node", Value: strconv.Itoa(n)})
		if got < int64(st.NodeRows[n]) {
			t.Errorf("registry cluster_node_freeride_rows_total{node=%d} = %d, want >= %d", n, got, st.NodeRows[n])
		}
	}
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	exposition := b.String()
	for _, want := range []string{
		`cluster_node_freeride_rows_total{node="0"}`,
		`cluster_node_freeride_rows_total{node="` + strconv.Itoa(nodes-1) + `"}`,
		"cluster_pass_duration_seconds_bucket",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("scrape is missing %q", want)
		}
	}

	if err := c.Release(res); err != nil {
		t.Fatal(err)
	}
}

// TestClusterObservabilityInProcess checks the in-process transport produces
// the same shape of merged timeline and node deltas without a mesh.
func TestClusterObservabilityInProcess(t *testing.T) {
	const nodes, rows = 2, 1000
	c := New(Config{Nodes: nodes, PerNode: freeride.Config{Threads: 2}})
	defer c.Close()
	src := dataset.NewMemorySource(dataset.UniformMatrix(rows, 1, 3, 0, 1))
	res, err := c.RunContext(context.Background(), obsSumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(res)
	st := res.Stats
	if st.Job == 0 {
		t.Fatal("no job id")
	}
	var total int64
	for _, ds := range st.NodeDeltas {
		for _, d := range ds {
			if d.Name == "freeride_rows_total" {
				total += d.Value
			}
		}
	}
	if total != rows {
		t.Errorf("node deltas sum to %d rows, want %d", total, rows)
	}
	perNode := map[int]int{}
	for _, sp := range st.Spans {
		perNode[sp.Node]++
	}
	for n := 0; n < nodes; n++ {
		if perNode[n] == 0 {
			t.Errorf("no spans attributed to node %d", n)
		}
	}
}

// TestClusterEventLogCarriesJob checks the merged timeline lands in the
// process event log under the cluster's job id.
func TestClusterEventLogCarriesJob(t *testing.T) {
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}})
	defer c.Close()
	src := dataset.NewMemorySource(dataset.UniformMatrix(200, 1, 5, 0, 1))
	res, err := c.RunContext(context.Background(), obsSumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Release(res)

	var b strings.Builder
	if err := obs.Log.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	jobTag := `"job": ` + strconv.FormatUint(uint64(res.Stats.Job), 10)
	if !strings.Contains(b.String(), jobTag) {
		t.Fatalf("event log JSON is missing the cluster run's job id (%s)", jobTag)
	}
}
