package chapelfreeride_test

import (
	"context"
	"fmt"

	cf "chapelfreeride"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// The FREERIDE engine in one spec: declare the reduction object, process
// every data instance in the reduction function, read the combined result.
func ExampleNewEngine() {
	data := cf.NewMatrix(1000, 1)
	for i := range data.Data {
		data.Data[i] = float64(i % 4)
	}
	eng := cf.NewEngine(cf.EngineConfig{Threads: 2, SplitRows: 100})
	spec := cf.Spec{
		Object: cf.ObjectSpec{Groups: 4, Elems: 1, Op: cf.OpAdd},
		Reduction: func(args *cf.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				args.Accumulate(int(args.Row(i)[0]), 0, 1)
			}
			return nil
		},
	}
	res, err := eng.RunContext(context.Background(), spec, cf.NewMemorySource(data))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Object.Get(0, 0), res.Object.Get(3, 0))
	// Output: 250 250
}

// Chapel's global-view reduction: `+ reduce A` over a boxed array.
func ExampleReduce() {
	a := cf.RealArray(1.5, 2.5, 3.0)
	sum := cf.Reduce(cf.NewSumOp(), cf.ChapelOver(a), 2)
	fmt.Println(sum.(*cf.ChapelReal).Val)
	// Output: 7
}

// Linearization round trip: Algorithm 2 and its inverse.
func ExampleLinearize() {
	v := cf.RealArray(3, 1, 4)
	buf := cf.Linearize(v)
	back, err := cf.Delinearize(buf)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(buf.Bytes), back.(*cf.ChapelArray).At(3).(*cf.ChapelReal).Val)
	// Output: 24 4
}

// MetaFor collects the paper's Fig. 6 information for an access path
// through a nested structure.
func ExampleMetaFor() {
	decls, err := chapel.ParseDecls(`
record A { a1: [1..5] real; a2: int; }
record B { b1: [1..4] A;   b2: int; }
var data: [1..3] B;
`)
	if err != nil {
		panic(err)
	}
	ty, _ := decls.Var("data")
	meta, err := cf.MetaFor(ty, "b1", "a1")
	if err != nil {
		panic(err)
	}
	fmt.Println(meta.Levels, meta.UnitSize, meta.ComputeIndex(2, 3, 4))
	// Output: 3 [200 48 8] 320
}

// Translate compiles a declarative reduction class into an executable
// FREERIDE spec at a chosen optimization level.
func ExampleTranslate() {
	// Dataset: 6 points of 2 coordinates, boxed Chapel-style.
	pts := cf.NewMatrix(6, 2)
	for i := 0; i < 6; i++ {
		pts.Set(i, 0, float64(i))
		pts.Set(i, 1, float64(i)*10)
	}
	boxed := cf.BoxPoints(pts)
	class := &core.ReductionClass{
		Name:   "column-sums",
		Object: freeride.ObjectSpec{Groups: 1, Elems: 2, Op: robj.OpAdd},
		Path:   []string{"coords"},
		Kernel: func(elem *core.Vec, _ []*core.StateVec, args *freeride.ReductionArgs) {
			row := elem.Row(args.Scratch(0, 2))
			args.Accumulate(0, 0, row[0])
			args.Accumulate(0, 1, row[1])
		},
	}
	tr, err := cf.Translate(class, boxed, cf.Opt2)
	if err != nil {
		panic(err)
	}
	res, err := cf.NewEngine(cf.EngineConfig{Threads: 2}).RunContext(context.Background(), tr.Spec(), tr.Source())
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Object.Get(0, 0), res.Object.Get(0, 1))
	// Output: 15 150
}

// The simulated cluster runs the same spec across nodes and combines the
// reduction objects globally.
func ExampleNewCluster() {
	data := cf.NewMatrix(100, 1)
	for i := range data.Data {
		data.Data[i] = 1
	}
	c := cf.NewCluster(cf.ClusterConfig{
		Nodes:     4,
		PerNode:   cf.EngineConfig{Threads: 1},
		Transport: cf.TransportInProcess,
		Combine:   cf.CombineTree,
	})
	spec := cf.Spec{
		Object: cf.ObjectSpec{Groups: 1, Elems: 1, Op: cf.OpAdd},
		Reduction: func(args *cf.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				args.Accumulate(0, 0, args.Row(i)[0])
			}
			return nil
		},
	}
	res, err := c.RunContext(context.Background(), spec, cf.NewMemorySource(data))
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Object.Get(0, 0), res.Stats.Rounds)
	// Output: 100 2
}
