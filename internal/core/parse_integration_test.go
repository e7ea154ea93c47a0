package core

import (
	"context"
	"testing"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// TestParsedChapelSourceThroughTranslator drives the full §IV pipeline from
// Chapel source text: parse the declarations, build a boxed value, apply
// Algorithm 1/2 (linearize), Algorithm 3 (map), and verify Fig. 8's
// equivalence on the parsed type.
func TestParsedChapelSourceThroughTranslator(t *testing.T) {
	d, err := chapel.ParseDecls(`
record A { a1: [1..5] real; a2: int; }
record B { b1: [1..4] A;   b2: int; }
var data: [1..3] B;
`)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := d.Var("data")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SizeOf(ty), 3*(4*(5*8+8)+8); got != want {
		t.Fatalf("SizeOf(parsed) = %d, want %d", got, want)
	}

	// Fill and sum through the boxed structure.
	data := chapel.NewArray(ty)
	var want float64
	for i := 1; i <= 3; i++ {
		b := data.At(i).(*chapel.Record)
		for j := 1; j <= 4; j++ {
			a := b.Field("b1").(*chapel.Array).At(j).(*chapel.Record)
			for k := 1; k <= 5; k++ {
				v := float64(i*100 + j*10 + k)
				a.Field("a1").(*chapel.Array).SetAt(k, &chapel.Real{Val: v})
				want += v
			}
		}
	}

	// Sum through the linearized buffer with the mapping algorithm.
	buf := Linearize(data)
	meta, err := MetaFor(ty, "b1", "a1")
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for i := 1; i <= 3; i++ {
		for j := 1; j <= 4; j++ {
			base := meta.BaseIndex(i, j)
			for k := 0; k < meta.InnerLen; k++ {
				got += buf.ReadReal(base + k*meta.Stride())
			}
		}
	}
	if got != want {
		t.Fatalf("mapped sum %v != boxed sum %v", got, want)
	}

	// Round trip back to boxed values.
	back, err := Delinearize(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !chapel.DeepEqual(data, back) {
		t.Fatal("delinearize of parsed-type value diverged")
	}
}

// TestParsedPointTypeRunsOnEngine goes one step further: a dataset typed by
// parsed Chapel source runs through Translate and the FREERIDE engine.
func TestParsedPointTypeRunsOnEngine(t *testing.T) {
	d, err := chapel.ParseDecls(`
record Point { coords: [1..3] real; }
var points: [1..40] Point;
`)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := d.Var("points")
	if err != nil {
		t.Fatal(err)
	}
	data := chapel.NewArray(ty)
	var want float64
	for i := 1; i <= 40; i++ {
		c := data.At(i).(*chapel.Record).Field("coords").(*chapel.Array)
		for j := 1; j <= 3; j++ {
			v := float64(i * j)
			c.SetAt(j, &chapel.Real{Val: v})
			want += v
		}
	}
	cls := &ReductionClass{
		Name:   "sum-all",
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Path:   []string{"coords"},
		Kernel: func(elem *Vec, _ []*StateVec, args *freeride.ReductionArgs) {
			row := elem.Row(args.Scratch(0, 3))
			args.Accumulate(0, 0, row[0]+row[1]+row[2])
		},
	}
	for _, opt := range OptLevels() {
		tr, err := Translate(cls, data, opt)
		if err != nil {
			t.Fatalf("%v: %v", opt, err)
		}
		eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 8})
		res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Object.Get(0, 0); got != want {
			t.Fatalf("%v: sum = %v, want %v", opt, got, want)
		}
	}
}
