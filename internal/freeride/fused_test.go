package freeride

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
)

// TestFusedPrefersBlockOverElement: when a spec sets both callbacks, the
// engine runs only the block kernel.
func TestFusedPrefersBlockOverElement(t *testing.T) {
	// Integer-valued data keeps float addition exact, so the two paths'
	// different summation orders still compare with ==.
	m := dataset.NewMatrix(128, 2)
	r := int64(3)
	for i := range m.Data {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64((r >> 33) % 100)
	}
	elemSpec, fusedSpec := histSpecs(4)
	both := fusedSpec
	both.Reduction = func(a *ReductionArgs) error {
		t.Error("per-element Reduction called on a spec with BlockReduction")
		return nil
	}
	eng := New(Config{Threads: 2, SplitRows: 16})
	defer eng.Close()
	res, err := eng.RunContext(context.Background(), both, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	ref := New(Config{Threads: 2, SplitRows: 16})
	defer ref.Close()
	want, err := ref.RunContext(context.Background(), elemSpec, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Object.Snapshot(), want.Object.Snapshot()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cell %d: %v != %v", i, a[i], b[i])
		}
	}
}

// TestFusedEmptySourceIdentity: a fused run over zero rows never calls the
// block kernel and yields the operator's identity in every cell.
func TestFusedEmptySourceIdentity(t *testing.T) {
	empty := dataset.NewMemorySource(dataset.NewMatrix(0, 2))
	for _, op := range []robj.Op{robj.OpAdd, robj.OpMin, robj.OpMax} {
		eng := New(Config{Threads: 2, SplitRows: 16})
		spec := Spec{
			Object: ObjectSpec{Groups: 2, Elems: 2, Op: op},
			BlockReduction: func(a *BlockArgs) error {
				t.Error("block kernel called on empty source")
				return nil
			},
		}
		res, err := eng.RunContext(context.Background(), spec, empty)
		if err != nil {
			t.Fatalf("op %v: %v", op, err)
		}
		want := op.Identity()
		for g := 0; g < 2; g++ {
			for e := 0; e < 2; e++ {
				if got := res.Object.Get(g, e); got != want {
					t.Fatalf("op %v cell (%d,%d) = %v, want identity %v", op, g, e, got, want)
				}
			}
		}
		eng.Close()
	}
}

// TestFusedCancellation: cancelling a fused run mid-pass returns ctx.Err()
// promptly with no partial result, same as the per-element path.
func TestFusedCancellation(t *testing.T) {
	_, fusedSpec := histSpecs(4)
	eng := New(Config{Threads: 2, SplitRows: 10})
	defer eng.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	t0 := time.Now()
	res, err := eng.RunContext(ctx, fusedSpec, &blockedSource{rows: 1000, cols: 2})
	if res != nil {
		t.Fatal("cancelled fused run returned a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(t0); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled fused run took %v, want well under a second", elapsed)
	}
}

// TestFusedSpecValidation: the fused path requires a cell-based object,
// since its worker-local block buffer is that object's dense mirror.
func TestFusedSpecValidation(t *testing.T) {
	src := dataset.NewMemorySource(dataset.UniformMatrix(8, 2, 1, 0, 1))
	eng := New(Config{Threads: 1})
	defer eng.Close()

	if _, err := eng.RunContext(context.Background(), Spec{}, src); !errors.Is(err, ErrNoReduction) {
		t.Fatalf("empty spec: want ErrNoReduction, got %v", err)
	}
	noObj := Spec{BlockReduction: func(*BlockArgs) error { return nil }}
	if _, err := eng.RunContext(context.Background(), noObj, src); err == nil || !strings.Contains(err.Error(), "declares no reduction object") {
		t.Fatalf("BlockReduction without object shape: got %v", err)
	}
}

// TestBlockArgsAccessors covers the BlockArgs surface a kernel relies on:
// local accumulation under every operator, Row, Scratch
// reuse, and the out-of-range panic.
func TestBlockArgsAccessors(t *testing.T) {
	for _, op := range []robj.Op{robj.OpAdd, robj.OpMin, robj.OpMax} {
		a := &BlockArgs{ReductionArgs: ReductionArgs{worker: 1}, op: op, groups: 2, elems: 3}
		a.acc = make([]float64, 6)
		fillIdentity(a.acc, op.Identity())
		a.Accumulate(1, 2, 7)
		a.Accumulate(1, 2, 4)
		want := op.Apply(op.Apply(op.Identity(), 7), 4)
		if got := a.Acc()[1*3+2]; got != want {
			t.Fatalf("op %v: acc = %v, want %v", op, got, want)
		}
	}
	a := &BlockArgs{ReductionArgs: ReductionArgs{Data: []float64{1, 2, 3, 4}, NumRows: 2, Cols: 2}}
	if r := a.Row(1); r[0] != 3 || r[1] != 4 {
		t.Fatal("BlockArgs.Row")
	}
	s := a.Scratch(0, 4)
	if len(s) != 4 {
		t.Fatal("Scratch length")
	}
	if s2 := a.Scratch(0, 2); len(s2) != 2 || &s2[0] != &s[0] {
		t.Fatal("Scratch must reuse its buffer")
	}
	a.groups, a.elems = 1, 1
	a.acc = []float64{0}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Accumulate did not panic")
		}
	}()
	a.Accumulate(1, 0, math.Pi)
}
