// Quickstart: the shortest path through the public API — run a generalized
// reduction (a histogram) on the FREERIDE engine, then the same computation
// as a Chapel-style reduction, and check they agree.
package main

import (
	"context"
	"fmt"
	"log"

	cf "chapelfreeride"
)

func main() {
	// 1. A dataset: 100k values in [0, 10).
	data := cf.UniformMatrix(100000, 1, 7, 0, 10)

	// 2. FREERIDE: declare a 10-bucket reduction object and a reduction
	// function that processes each data instance and updates it in place —
	// map and reduce fused, no intermediate pairs.
	// The engine is a session: its worker pool persists across passes until
	// Close. RunContext is its one entry point; the context can cancel the
	// pass.
	eng := cf.NewEngine(cf.EngineConfig{Threads: 4})
	defer eng.Close()
	spec := cf.Spec{
		Object: cf.ObjectSpec{Groups: 10, Elems: 1, Op: cf.OpAdd},
		Reduction: func(args *cf.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				bucket := int(args.Row(i)[0])
				args.Accumulate(bucket, 0, 1)
			}
			return nil
		},
	}
	res, err := eng.RunContext(context.Background(), spec, cf.NewMemorySource(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("FREERIDE histogram:")
	for b := 0; b < 10; b++ {
		fmt.Printf("  [%d,%d): %6.0f\n", b, b+1, res.Object.Get(b, 0))
	}
	fmt.Printf("engine: %d splits across %d threads, reduce took %v\n",
		res.Stats.Splits, res.Stats.Threads, res.Stats.ReduceTime.Round(1000))

	// 3. The same computation as a Chapel reduction: a user-defined
	// ReduceScanOp with the paper's accumulate/combine/generate stages.
	col := make([]float64, data.Rows)
	for i := range col {
		col[i] = data.At(i, 0)
	}
	boxed := cf.RealArray(col...)
	out := cf.Reduce(&histOp{counts: make([]float64, 10)}, cf.ChapelOver(boxed), 4).(*cf.ChapelArray)

	fmt.Println("Chapel-style reduction agrees:")
	for b := 0; b < 10; b++ {
		chapelCount := out.At(b + 1).(*cf.ChapelReal).Val
		if chapelCount != res.Object.Get(b, 0) {
			log.Fatalf("bucket %d mismatch: %v vs %v", b, chapelCount, res.Object.Get(b, 0))
		}
	}
	fmt.Println("  all 10 buckets identical ✓")
}

// histOp is a user-defined Chapel reduction (compare the paper's Fig. 2).
type histOp struct{ counts []float64 }

func (o *histOp) Clone() cf.ReduceScanOp { return &histOp{counts: make([]float64, len(o.counts))} }

func (o *histOp) Accumulate(x cf.ChapelValue) {
	b := int(x.(*cf.ChapelReal).Val)
	if b < 0 {
		b = 0
	}
	if b >= len(o.counts) {
		b = len(o.counts) - 1
	}
	o.counts[b]++
}

func (o *histOp) Combine(other cf.ReduceScanOp) {
	for i, v := range other.(*histOp).counts {
		o.counts[i] += v
	}
}

func (o *histOp) Generate() cf.ChapelValue { return cf.RealArray(o.counts...) }
