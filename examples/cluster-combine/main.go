// Cluster combination: run the same generalized reduction on 1, 2, 4, and
// 8 simulated FREERIDE nodes and watch the global combination phase work —
// in-process first, then over real loopback TCP with serialized reduction
// objects, the communication the paper's middleware handles "internally
// and transparently" (§III-A).
package main

import (
	"context"
	"fmt"
	"log"

	cf "chapelfreeride"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

func main() {
	// Workload: bucket counts over 2M values, a 256×16 reduction object.
	const (
		n      = 2_000_000
		groups = 256
		elems  = 16
	)
	m := dataset.NewMatrix(n, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % groups)
	}
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: groups, Elems: elems, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				a.Accumulate(int(a.Row(i)[0]), (a.Begin+i)%elems, 1)
			}
			return nil
		},
	}

	// Reference: one node (the plain engine). The engine and the cluster
	// take the same context-first call.
	ctx := context.Background()
	refEng := cf.NewEngine(cf.EngineConfig{Threads: 2})
	ref, err := refEng.RunContext(ctx, spec, cf.NewMemorySource(m))
	if err != nil {
		log.Fatal(err)
	}
	refEng.Close()

	fmt.Printf("%6s %-11s %-10s %12s %7s\n", "nodes", "transport", "combine", "bytes moved", "rounds")
	for _, nodes := range []int{1, 2, 4, 8} {
		for _, tr := range []cluster.Transport{cluster.InProcess, cluster.TCP} {
			algo := cluster.AllToOne
			if nodes >= 4 {
				algo = cluster.Tree
			}
			c := cluster.New(cluster.Config{
				Nodes:     nodes,
				PerNode:   freeride.Config{Threads: 2},
				Transport: tr,
				Combine:   algo,
			})
			res, err := c.RunContext(ctx, spec, cf.NewMemorySource(m))
			if err != nil {
				log.Fatal(err)
			}
			c.Close()
			// Every configuration must reproduce the single-engine result.
			for g := 0; g < groups; g++ {
				for e := 0; e < elems; e++ {
					if res.Object.Get(g, e) != ref.Object.Get(g, e) {
						log.Fatalf("nodes=%d %v: cell (%d,%d) diverges", nodes, tr, g, e)
					}
				}
			}
			fmt.Printf("%6d %-11s %-10s %12d %7d\n",
				nodes, tr, algo, res.Stats.BytesMoved, res.Stats.Rounds)
		}
	}
	fmt.Println("all cluster configurations reproduce the single-node reduction ✓")
}
