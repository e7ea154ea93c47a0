package cluster

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// histSpec counts rows per integer bucket (column 0) and records the global
// row index sum per bucket in a second cell — so tests catch wrong Begin
// offsets across nodes.
func histSpec(buckets int) freeride.Spec {
	return freeride.Spec{
		Object: freeride.ObjectSpec{Groups: buckets, Elems: 2, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				b := int(a.Row(i)[0])
				a.Accumulate(b, 0, 1)
				a.Accumulate(b, 1, float64(a.Begin+i))
			}
			return nil
		},
	}
}

// blockHistSpec is histSpec as a fused BlockReduction kernel. Like the
// translated opt-3 kernels and the sparse executors it relies on
// BlockArgs.Begin being the global row index, so a node pass that saw its
// node-local Begin would corrupt the index-sum cells.
func blockHistSpec(buckets int) freeride.Spec {
	return freeride.Spec{
		Object: freeride.ObjectSpec{Groups: buckets, Elems: 2, Op: robj.OpAdd},
		BlockReduction: func(a *freeride.BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				b := int(a.Row(i)[0])
				a.Accumulate(b, 0, 1)
				a.Accumulate(b, 1, float64(a.Begin+i))
			}
			return nil
		},
	}
}

func bucketData(n, buckets int) *dataset.Matrix {
	m := dataset.NewMatrix(n, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % buckets)
	}
	return m
}

// expected computes the reference histogram with global index sums.
func expected(m *dataset.Matrix, buckets int) []float64 {
	out := make([]float64, buckets*2)
	for i := 0; i < m.Rows; i++ {
		b := int(m.At(i, 0))
		out[b*2]++
		out[b*2+1] += float64(i)
	}
	return out
}

func TestClusterMatchesSingleNode(t *testing.T) {
	const n, buckets = 5000, 7
	m := bucketData(n, buckets)
	want := expected(m, buckets)
	kernels := []struct {
		name string
		spec func(int) freeride.Spec
	}{{"per-element", histSpec}, {"block", blockHistSpec}}
	for _, kernel := range kernels {
		for _, transport := range []Transport{InProcess, TCP} {
			for _, algo := range []CombineAlgo{AllToOne, Tree} {
				for _, nodes := range []int{1, 2, 3, 4, 8} {
					c := New(Config{
						Nodes:     nodes,
						PerNode:   freeride.Config{Threads: 2, SplitRows: 64},
						Transport: transport,
						Combine:   algo,
					})
					res, err := c.RunContext(context.Background(), kernel.spec(buckets), dataset.NewMemorySource(m))
					if err != nil {
						t.Fatalf("%s/%v/%v/nodes=%d: %v", kernel.name, transport, algo, nodes, err)
					}
					got := res.Object.Snapshot()
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s/%v/%v/nodes=%d: cell %d = %v, want %v",
								kernel.name, transport, algo, nodes, i, got[i], want[i])
						}
					}
					// Partition stats must cover the dataset exactly.
					total := 0
					for _, r := range res.Stats.NodeRows {
						total += r
					}
					if total != n || len(res.Stats.NodeRows) != nodes {
						t.Fatalf("%s/%v/%v/nodes=%d: partition %v", kernel.name, transport, algo, nodes, res.Stats.NodeRows)
					}
					if transport == TCP && nodes > 1 && res.Stats.BytesMoved == 0 {
						t.Fatalf("TCP with %d nodes moved no bytes", nodes)
					}
					if transport == InProcess && res.Stats.BytesMoved != 0 {
						t.Fatal("in-process transport should move no bytes")
					}
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func TestClusterRunFileMatchesMemory(t *testing.T) {
	const n, buckets = 3000, 5
	m := bucketData(n, buckets)
	want := expected(m, buckets)
	dir := t.TempDir()
	for _, layout := range []dataset.Layout{dataset.RowMajor, dataset.ColMajor} {
		path := filepath.Join(dir, layout.String()+".frds")
		if err := dataset.WriteFileLayout(path, m, layout); err != nil {
			t.Fatal(err)
		}
		for _, nodes := range []int{1, 2, 3} {
			ms, err := dataset.OpenMappedSource(path)
			if err != nil {
				t.Fatal(err)
			}
			c := New(Config{Nodes: nodes, PerNode: freeride.Config{Threads: 2, SplitRows: 128}})
			res, err := c.RunContext(context.Background(), histSpec(buckets), ms)
			if err != nil {
				t.Fatalf("%v/nodes=%d: %v", layout, nodes, err)
			}
			got := res.Object.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/nodes=%d: cell %d = %v, want %v", layout, nodes, i, got[i], want[i])
				}
			}
			if err := c.Release(res); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			if err := ms.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestClusterRounds(t *testing.T) {
	m := bucketData(100, 2)
	cases := []struct {
		nodes  int
		algo   CombineAlgo
		rounds int
	}{
		{1, AllToOne, 0},
		{2, AllToOne, 1},
		{8, AllToOne, 1},
		{1, Tree, 0},
		{2, Tree, 1},
		{4, Tree, 2},
		{5, Tree, 3},
		{8, Tree, 3},
	}
	for _, c := range cases {
		cl := New(Config{Nodes: c.nodes, PerNode: freeride.Config{Threads: 1}, Combine: c.algo})
		res, err := cl.RunContext(context.Background(), histSpec(2), dataset.NewMemorySource(m))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Rounds != c.rounds {
			t.Fatalf("nodes=%d algo=%v: rounds = %d, want %d", c.nodes, c.algo, res.Stats.Rounds, c.rounds)
		}
	}
}

func TestClusterFinalizeRunsOnceOnCombined(t *testing.T) {
	m := bucketData(1000, 4)
	calls := 0
	spec := histSpec(4)
	spec.Finalize = func(r *freeride.Result) error {
		calls++
		if got := r.Object.Get(0, 0); got != 250 {
			t.Errorf("finalize saw count %v, want 250", got)
		}
		return nil
	}
	c := New(Config{Nodes: 4, PerNode: freeride.Config{Threads: 1}})
	if _, err := c.RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("finalize ran %d times", calls)
	}
	// Finalize errors propagate.
	spec.Finalize = func(r *freeride.Result) error { return errors.New("final boom") }
	if _, err := c.RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err == nil {
		t.Fatal("finalize error should propagate")
	}
}

func TestClusterValidation(t *testing.T) {
	m := bucketData(10, 2)
	c := New(Config{Nodes: 2})
	if _, err := c.RunContext(context.Background(), freeride.Spec{}, dataset.NewMemorySource(m)); !errors.Is(err, freeride.ErrNoReduction) {
		t.Fatalf("want ErrNoReduction, got %v", err)
	}
	if _, err := c.RunContext(context.Background(), histSpec(2), nil); err == nil {
		t.Fatal("nil source: want error")
	}
	// Reduction errors on any node propagate.
	boom := errors.New("node boom")
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			if a.Begin >= 5 {
				return boom
			}
			return nil
		},
	}
	if _, err := c.RunContext(context.Background(), spec, dataset.NewMemorySource(m)); !errors.Is(err, boom) {
		t.Fatalf("want node error, got %v", err)
	}
}

func TestClusterDefaults(t *testing.T) {
	c := New(Config{})
	if c.cfg.Nodes != 2 {
		t.Fatalf("default nodes = %d", c.cfg.Nodes)
	}
	if InProcess.String() != "in-process" || TCP.String() != "tcp" {
		t.Fatal("transport strings")
	}
	if AllToOne.String() != "all-to-one" || Tree.String() != "tree" {
		t.Fatal("combine strings")
	}
	if Transport(9).String() != "transport(9)" || CombineAlgo(9).String() != "combine(9)" {
		t.Fatal("unknown enum strings")
	}
}

func TestPartition(t *testing.T) {
	parts := partition(10, 3)
	want := [][2]int{{0, 4}, {4, 7}, {7, 10}}
	for i := range want {
		if parts[i] != want[i] {
			t.Fatalf("partition = %v", parts)
		}
	}
	// Fewer rows than nodes: some nodes get empty ranges.
	parts = partition(2, 4)
	total := 0
	for _, p := range parts {
		total += p[1] - p[0]
	}
	if total != 2 {
		t.Fatalf("partition(2,4) covers %d rows", total)
	}
}

func TestClusterEmptyNodesTolerated(t *testing.T) {
	// 3 rows over 8 nodes: five nodes process nothing.
	m := bucketData(3, 2)
	c := New(Config{Nodes: 8, PerNode: freeride.Config{Threads: 2}, Transport: TCP})
	res, err := c.RunContext(context.Background(), histSpec(2), dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Object.Get(0, 0) + res.Object.Get(1, 0); got != 3 {
		t.Fatalf("total count = %v", got)
	}
}

// Property: cluster results equal single-node results for arbitrary node
// counts, transports, and algorithms (integer data keeps sums exact).
func TestPropertyClusterEqualsSingleNode(t *testing.T) {
	f := func(seed int64, nRaw uint16, nodesRaw, tRaw, aRaw uint8) bool {
		n := int(nRaw%2000) + 1
		nodes := int(nodesRaw%8) + 1
		transport := Transport(int(tRaw) % 2)
		algo := CombineAlgo(int(aRaw) % 2)
		rng := rand.New(rand.NewSource(seed))
		m := dataset.NewMatrix(n, 1)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(5))
		}
		want := expected(m, 5)
		c := New(Config{
			Nodes:     nodes,
			PerNode:   freeride.Config{Threads: 2, SplitRows: 32},
			Transport: transport,
			Combine:   algo,
		})
		res, err := c.RunContext(context.Background(), histSpec(5), dataset.NewMemorySource(m))
		if err != nil {
			return false
		}
		got := res.Object.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(81))}); err != nil {
		t.Fatal(err)
	}
}
