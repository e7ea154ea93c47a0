package core

import (
	"context"
	"math"
	"testing"

	"chapelfreeride/internal/freeride"
)

// withBlockKernel attaches the fused (opt-3) k-means body to a test class:
// the same distance logic and tie-breaking as kmeansClass's per-element
// kernel, walking the linearized words and the dense centroid block
// directly and accumulating into the worker-local buffer.
func withBlockKernel(cls *ReductionClass, k, dim int) *ReductionClass {
	cls.BlockKernel = func(args *freeride.BlockArgs, view BlockView, hot []*StateVec) error {
		cents, ok := hot[0].Dense()
		if !ok {
			buf := args.Scratch(2, k*dim)
			for c := 1; c <= k; c++ {
				copy(buf[(c-1)*dim:(c-1)*dim+dim], hot[0].Row(c, args.Scratch(1, dim)))
			}
			cents = buf
		}
		acc := args.Acc()
		for i := 0; i < args.NumRows; i++ {
			pt := view.Words[view.RowStride*(args.Begin+i)+view.RunOff:][:view.RunLen]
			best, bestDist := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				cc := cents[c*dim : c*dim+dim]
				var d float64
				for j := 0; j < dim; j++ {
					diff := pt[j] - cc[j]
					d += diff * diff
				}
				if d < bestDist {
					best, bestDist = c, d
				}
			}
			for j := 0; j < dim; j++ {
				acc[best*(dim+1)+j] += pt[j]
			}
			acc[best*(dim+1)+dim]++
		}
		return nil
	}
	return cls
}

// TestOpt3FusedMatchesReference: an Opt3 translation of a class with a
// BlockKernel wires Spec.BlockReduction and only it, and the fused execution
// produces the reference result bit for bit across thread counts (integer
// data).
func TestOpt3FusedMatchesReference(t *testing.T) {
	const n, k, dim = 240, 4, 3
	data := makePoints(n, dim, 1)
	centroids := makeCentroids(k, dim, 2)
	want := kmeansManual(data, centroids, k, dim)
	tr, err := Translate(withBlockKernel(kmeansClass(k, dim, centroids), k, dim), data, Opt3)
	if err != nil {
		t.Fatal(err)
	}
	spec := tr.Spec()
	if spec.BlockReduction == nil {
		t.Fatal("Opt3 translation of a class with a BlockKernel must wire Spec.BlockReduction")
	}
	if spec.Reduction != nil {
		t.Fatal("Opt3 with a BlockKernel must not also wire the per-element Reduction")
	}
	for _, threads := range []int{1, 4} {
		eng := freeride.New(freeride.Config{Threads: threads, SplitRows: 32})
		res, err := eng.RunContext(context.Background(), spec, tr.Source())
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		got := res.Object.Snapshot()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("threads=%d: cell %d = %v, want %v", threads, i, got[i], want[i])
			}
		}
		eng.Close()
	}
}

// TestOpt3WithoutBlockKernelFallsBack: classes without a BlockKernel still
// translate at Opt3 but execute with the Opt2 per-element shape, and levels
// below Opt3 never wire the fused callback even when the class declares one.
func TestOpt3WithoutBlockKernelFallsBack(t *testing.T) {
	const k, dim = 3, 2
	data := makePoints(40, dim, 3)
	centroids := makeCentroids(k, dim, 4)
	tr, err := Translate(kmeansClass(k, dim, centroids), data, Opt3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Spec().BlockReduction != nil {
		t.Fatal("Opt3 without a BlockKernel must not wire BlockReduction")
	}
	tr2, err := Translate(withBlockKernel(kmeansClass(k, dim, centroids), k, dim), data, Opt2)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Spec().BlockReduction != nil {
		t.Fatal("Opt2 must not wire BlockReduction")
	}
}

// TestStateVecDense: the linearized view's dense block agrees with At/Row,
// and boxed views report not-dense.
func TestStateVecDense(t *testing.T) {
	const k, dim = 3, 4
	cents := makeCentroids(k, dim, 5)
	word, err := NewWordStateVec(cents, []string{"coords"})
	if err != nil {
		t.Fatal(err)
	}
	dense, ok := word.Dense()
	if !ok {
		t.Fatal("contiguous word state vec must be dense")
	}
	if len(dense) != k*dim {
		t.Fatalf("dense block has %d cells, want %d", len(dense), k*dim)
	}
	for c := 0; c < k; c++ {
		for j := 0; j < dim; j++ {
			if dense[c*dim+j] != word.At(c+1, j+1) {
				t.Fatalf("dense[%d,%d] = %v, At = %v", c, j, dense[c*dim+j], word.At(c+1, j+1))
			}
		}
	}
	boxed, err := NewBoxedStateVec(cents, []string{"coords"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := boxed.Dense(); ok {
		t.Fatal("boxed state vec must not claim a dense view")
	}
}

// TestGeneratedRowMatchesOpt1Row is the regression test for Vec.Row in
// generated mode: the per-element ComputeIndex evaluations land on exactly
// the contiguous run that opt-1's strength-reduced view walks directly, so
// the materialized values are identical — the two modes differ in cost, not
// result. A divergence here would mean the generated-mode addressing (or
// the strength-reduced base/offset derivation) broke.
func TestGeneratedRowMatchesOpt1Row(t *testing.T) {
	const n, k, dim = 50, 2, 3
	data := makePoints(n, dim, 7)
	tr, err := Translate(kmeansClass(k, dim, makeCentroids(k, dim, 8)), data, OptNone)
	if err != nil {
		t.Fatal(err)
	}
	meta, words := tr.meta, tr.words
	// The opt-1 access constants, exactly as SpecFromWords derives them.
	stride := meta.Stride()
	inner := meta.InnerLen
	u0 := meta.UnitSize[0]
	off0 := meta.UnitOffset[0][meta.Position[0][0]] + meta.LeafOffset
	scratch := make([]float64, inner)
	for i := 0; i < n; i++ {
		gen := Vec{words: words, meta: meta, row: meta.Lo[0] + i}
		got := gen.Row(scratch)
		base := u0*i + off0
		opt1 := Vec{run: words[base : base+inner*stride]}
		want := opt1.Row(nil)
		if len(got) != len(want) {
			t.Fatalf("row %d: generated Row has %d values, opt-1 has %d", i, len(got), len(want))
		}
		for kk := range want {
			if got[kk] != want[kk] {
				t.Fatalf("row %d elem %d: generated %v != opt-1 %v", i, kk, got[kk], want[kk])
			}
			if gen.At(kk) != opt1.At(kk) {
				t.Fatalf("row %d elem %d: generated At %v != opt-1 At %v", i, kk, gen.At(kk), opt1.At(kk))
			}
		}
	}
}
