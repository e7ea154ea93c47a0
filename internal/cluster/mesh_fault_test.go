package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
)

// grabMesh reads the cluster's current mesh pointer under its lock.
func grabMesh(t *testing.T, c *Cluster) *tcpMesh {
	t.Helper()
	c.meshMu.Lock()
	defer c.meshMu.Unlock()
	if c.mesh == nil {
		t.Fatal("cluster has no established mesh")
	}
	return c.mesh
}

// TestMeshFaultBreaksAndRebuilds injects a connection failure underneath an
// established TCP mesh: with one root-side connection killed, the next
// pass's announce frame fails to send. The regression this pins: that
// failure must latch the mesh broken and tear it down, so the pass after it
// re-dials a fresh fabric and succeeds — not inherit a connection that
// reads the rest of a half-sent frame as the next one.
func TestMeshFaultBreaksAndRebuilds(t *testing.T) {
	const buckets = 8
	m := bucketData(2000, buckets)
	want := expected(m, buckets)
	c := New(Config{
		Nodes:     3,
		PerNode:   freeride.Config{Threads: 2},
		Transport: TCP,
		IOTimeout: 2 * time.Second,
	})
	defer c.Close()
	src := dataset.NewMemorySource(m)

	check := func(pass string, res *Result) {
		t.Helper()
		for b := 0; b < buckets; b++ {
			if res.Object.Get(b, 0) != want[b*2] || res.Object.Get(b, 1) != want[b*2+1] {
				t.Fatalf("%s pass bucket %d diverges from single-node reference", pass, b)
			}
		}
		c.Release(res)
	}

	res, err := c.RunContext(context.Background(), histSpec(buckets), src)
	if err != nil {
		t.Fatalf("healthy pass: %v", err)
	}
	check("healthy", res)

	// Kill one root-side connection out from under the mesh. The next
	// announce's encode to node 1 hits a closed conn mid-pass.
	first := grabMesh(t, c)
	breaksBefore := obs.Default.Value("cluster_mesh_breaks_total")
	dialedBefore := obs.Default.Value("cluster_conns_dialed_total")
	first.links[1].root.Close()

	if _, err := c.RunContext(context.Background(), histSpec(buckets), src); err == nil {
		t.Fatal("pass over a killed connection reported success")
	}
	if !first.broken.Load() {
		t.Fatal("failed announce did not latch the mesh broken")
	}
	if got := obs.Default.Value("cluster_mesh_breaks_total") - breaksBefore; got != 1 {
		t.Fatalf("cluster_mesh_breaks_total moved by %d, want 1", got)
	}

	// The pass after the fault rebuilds the fabric from scratch and produces
	// the reference answer again.
	res, err = c.RunContext(context.Background(), histSpec(buckets), src)
	if err != nil {
		t.Fatalf("pass after fault: %v", err)
	}
	check("rebuilt", res)
	if second := grabMesh(t, c); second == first {
		t.Fatal("cluster reused the broken mesh instead of rebuilding")
	}
	if extra := obs.Default.Value("cluster_conns_dialed_total") - dialedBefore; extra != int64(c.cfg.Nodes-1) {
		t.Fatalf("rebuild dialed %d connections, want %d", extra, c.cfg.Nodes-1)
	}
}

// TestBrokenMeshRefusesReuse: once latched broken, a mesh fails every
// further exchange fast with errMeshBroken (never touching its out-of-step
// streams), and ensureMesh discards it even when the faulting pass forgot to
// call dropMesh.
func TestBrokenMeshRefusesReuse(t *testing.T) {
	const buckets = 4
	m := bucketData(400, buckets)
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}, Transport: TCP})
	defer c.Close()
	if res, err := c.RunContext(context.Background(), histSpec(buckets), dataset.NewMemorySource(m)); err != nil {
		t.Fatal(err)
	} else {
		c.Release(res)
	}

	mesh := grabMesh(t, c)
	mesh.markBroken()
	if _, err := mesh.announce(obs.NextJobID(), c.cfg); !errors.Is(err, errMeshBroken) {
		t.Fatalf("announce on broken mesh returned %v, want errMeshBroken", err)
	}
	if _, _, _, _, err := mesh.combine(nil, AllToOne, c.cfg); !errors.Is(err, errMeshBroken) {
		t.Fatalf("combine on broken mesh returned %v, want errMeshBroken", err)
	}

	// Simulate the caller missing dropMesh: ensureMesh must still refuse to
	// hand the broken mesh back.
	rebuilt, err := c.ensureMesh()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == mesh {
		t.Fatal("ensureMesh returned the broken mesh")
	}
	if rebuilt.broken.Load() {
		t.Fatal("rebuilt mesh started out broken")
	}
}
