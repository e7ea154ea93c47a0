package apps

import (
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

func randomEdges(n, nodes int, seed int64) *dataset.Matrix {
	m := dataset.NewMatrix(n, 2)
	r := seed
	for i := 0; i < n; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[2*i] = float64(uint64(r) >> 33 % uint64(nodes))
		m.Data[2*i+1] = float64(uint64(r) >> 12 % uint64(nodes))
	}
	return m
}

// TestPropertyDegreeMatchesDensified: the gather-free sparse pipeline (nil
// hot vector) agrees bit-identically with the densified adjacency row-sum
// across schedulers, strategies, and thread counts.
func TestPropertyDegreeMatchesDensified(t *testing.T) {
	policies := []sched.Policy{sched.Static, sched.Dynamic, sched.Guided, sched.WorkStealing}
	strategies := robj.Strategies()
	threadChoices := []int{1, 2, 4, 8}
	prop := func(seed int64, pick uint16, shape uint16) bool {
		nodes := 1 + int(shape)%50
		n := int(shape>>8)%80 + 1
		policy := policies[int(pick)%len(policies)]
		strategy := strategies[int(pick/4)%len(strategies)]
		threads := threadChoices[int(pick/32)%len(threadChoices)]

		edges := randomEdges(n, nodes, seed)
		cfg := DegreeConfig{
			Nodes: nodes,
			Engine: freeride.Config{
				Threads: threads, Scheduler: policy, Strategy: strategy,
				SplitRows: 1 + n/5,
			},
		}
		want, err := DegreeSeq(edges, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, v := range sparseVersions {
			got, err := Degree(v, edges, cfg)
			if err != nil {
				t.Logf("%v: %v", v, err)
				return false
			}
			for i := range want.Degrees {
				if got.Degrees[i] != want.Degrees[i] {
					t.Logf("%v deg[%d] = %v, want %v (policy %v, strategy %v, threads %d)",
						v, i, got.Degrees[i], want.Degrees[i], policy, strategy, threads)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestDegreeEmptyGraph: no edges yields all-zero degrees in every version.
func TestDegreeEmptyGraph(t *testing.T) {
	edges := dataset.NewMatrix(0, 2)
	cfg := DegreeConfig{Nodes: 3, Engine: freeride.Config{Threads: 2, SplitRows: 2}}
	for _, v := range append([]Version{Seq}, sparseVersions...) {
		res, err := Degree(v, edges, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for i, d := range res.Degrees {
			if d != 0 {
				t.Fatalf("%v: deg[%d] = %v, want 0", v, i, d)
			}
		}
	}
}

// TestDegreeSelfLoopsAndMultiEdges: duplicate edges and self-loops each
// count once per occurrence.
func TestDegreeSelfLoopsAndMultiEdges(t *testing.T) {
	edges := dataset.NewMatrix(4, 2)
	copy(edges.Data, []float64{
		0, 1,
		0, 1, // multi-edge
		1, 1, // self-loop
		2, 0,
	})
	cfg := DegreeConfig{Nodes: 3, Engine: freeride.Config{Threads: 2, SplitRows: 2}}
	want := []float64{2, 1, 1}
	for _, v := range append([]Version{Seq}, sparseVersions...) {
		res, err := Degree(v, edges, cfg)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		for i := range want {
			if res.Degrees[i] != want[i] {
				t.Fatalf("%v: deg[%d] = %v, want %v", v, i, res.Degrees[i], want[i])
			}
		}
	}
}
