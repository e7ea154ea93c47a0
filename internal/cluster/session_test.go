package cluster

import (
	"context"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// TestClusterTCPConnReuse: the TCP mesh dials once and reuses its framed
// connections across passes — the second and third pass add zero dials and
// bump the reuse counter instead, and every pass produces the single-node
// answer.
func TestClusterTCPConnReuse(t *testing.T) {
	const buckets = 8
	m := bucketData(4000, buckets)
	want := expected(m, buckets)
	c := New(Config{Nodes: 3, PerNode: freeride.Config{Threads: 2}, Transport: TCP})
	defer c.Close()

	dialedBefore := obs.Default.Value("cluster_conns_dialed_total")
	reusedBefore := obs.Default.Value("cluster_conn_reuses_total")
	var dialedAfterFirst int64
	for pass := 0; pass < 3; pass++ {
		res, err := c.RunContext(context.Background(), histSpec(buckets), dataset.NewMemorySource(m))
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for b := 0; b < buckets; b++ {
			if res.Object.Get(b, 0) != want[b*2] || res.Object.Get(b, 1) != want[b*2+1] {
				t.Fatalf("pass %d bucket %d diverges from single-node reference", pass, b)
			}
		}
		c.Release(res)
		if pass == 0 {
			dialedAfterFirst = obs.Default.Value("cluster_conns_dialed_total")
			if dialedAfterFirst == dialedBefore {
				t.Fatal("first TCP pass dialed no connections")
			}
		}
	}
	if extra := obs.Default.Value("cluster_conns_dialed_total") - dialedAfterFirst; extra != 0 {
		t.Fatalf("later passes dialed %d new connections, want 0 (mesh should persist)", extra)
	}
	if reuses := obs.Default.Value("cluster_conn_reuses_total") - reusedBefore; reuses == 0 {
		t.Fatal("conn reuse counter never moved across repeated passes")
	}
}

// TestClusterClosedRejectsWork: Close is idempotent and a closed cluster
// refuses further Runs with ErrClusterClosed.
func TestClusterClosedRejectsWork(t *testing.T) {
	m := bucketData(500, 4)
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}})
	if _, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(m)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(m)); err != ErrClusterClosed {
		t.Fatalf("RunContext after Close = %v, want ErrClusterClosed", err)
	}
}

// TestClusterEmptySourceIdentity: a zero-row source through the full
// node-partition + combine path yields an identity-valued result on every
// transport.
func TestClusterEmptySourceIdentity(t *testing.T) {
	empty := dataset.NewMemorySource(dataset.NewMatrix(0, 1))
	for _, tr := range []Transport{InProcess, TCP} {
		c := New(Config{Nodes: 3, PerNode: freeride.Config{Threads: 2}, Transport: tr})
		spec := freeride.Spec{
			Object: freeride.ObjectSpec{Groups: 3, Elems: 2, Op: robj.OpAdd},
			Reduction: func(a *freeride.ReductionArgs) error {
				t.Error("reduction called on empty source")
				return nil
			},
		}
		res, err := c.RunContext(context.Background(), spec, empty)
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		for g := 0; g < 3; g++ {
			for e := 0; e < 2; e++ {
				if v := res.Object.Get(g, e); v != 0 {
					t.Fatalf("%v: cell (%d,%d) = %v, want identity 0", tr, g, e, v)
				}
			}
		}
		c.Close()
	}
}

// TestClusterReleaseRecyclesCombined: releasing a combined result lets the
// next pass reuse the same reduction object through node 0's session pool.
func TestClusterReleaseRecyclesCombined(t *testing.T) {
	m := bucketData(1000, 4)
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 2}})
	defer c.Close()
	res1, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	first := res1.Object
	c.Release(res1)
	if res1.Object != nil {
		t.Fatal("Release left res.Object set")
	}
	res2, err := c.RunContext(context.Background(), histSpec(4), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Object != first {
		t.Fatal("second pass did not reuse the released combined object")
	}
	want := expected(m, 4)
	for b := 0; b < 4; b++ {
		if res2.Object.Get(b, 0) != want[b*2] {
			t.Fatalf("recycled pass bucket %d wrong", b)
		}
	}
}
