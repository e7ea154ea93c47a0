package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/chapel"
)

func TestMetaForFig6(t *testing.T) {
	// The paper's Fig. 6 collected information for data[i].b1[j].a1[k].
	tt, n, m := 3, 4, 5
	szA := m*8 + 8
	szB := n*szA + 8
	meta, err := MetaFor(fig6Type(tt, n, m), "b1", "a1")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels != 3 {
		t.Fatalf("levels = %d, want 3", meta.Levels)
	}
	// unitSize = {unitSize_B, unitSize_A, sizeof(real)}.
	if meta.UnitSize[0] != szB || meta.UnitSize[1] != szA || meta.UnitSize[2] != 8 {
		t.Fatalf("unitSize = %v", meta.UnitSize)
	}
	// unitOffset rows hold each junction record's field offsets; b1 and a1
	// are both first fields, so position[0][0] = position[1][0] = 0 and the
	// selected offsets are 0, exactly as the paper notes.
	if meta.UnitOffset[0][0] != 0 || meta.UnitOffset[0][1] != n*szA {
		t.Fatalf("unitOffset[0] = %v", meta.UnitOffset[0])
	}
	if meta.UnitOffset[1][0] != 0 || meta.UnitOffset[1][1] != m*8 {
		t.Fatalf("unitOffset[1] = %v", meta.UnitOffset[1])
	}
	if meta.Position[0][0] != 0 || meta.Position[1][0] != 0 {
		t.Fatalf("position = %v", meta.Position)
	}
	if meta.LeafOffset != 0 || meta.LeafType.Kind != chapel.KindReal || meta.InnerLen != m {
		t.Fatalf("leaf meta: off=%d ty=%s inner=%d", meta.LeafOffset, meta.LeafType, meta.InnerLen)
	}
	if !strings.Contains(meta.String(), "levels = 3") {
		t.Fatalf("String() = %q", meta.String())
	}
}

// TestFig8MappingEquivalence is the paper's Fig. 8: the triple loop over the
// original structure and the ComputeIndex-mapped loop over linearized data
// must compute the same sum.
func TestFig8MappingEquivalence(t *testing.T) {
	tt, n, m := 3, 4, 5
	data := fig6Data(tt, n, m)

	// Before linearization: sum += data[i].b1[j].a1[k].
	var before float64
	for i := 1; i <= tt; i++ {
		b := data.At(i).(*chapel.Record)
		for j := 1; j <= n; j++ {
			a := b.Field("b1").(*chapel.Array).At(j).(*chapel.Record)
			for k := 1; k <= m; k++ {
				before += a.Field("a1").(*chapel.Array).At(k).(*chapel.Real).Val
			}
		}
	}

	// After linearization: index = computeIndex(...); sum += linear_data[index].
	buf := Linearize(data)
	meta, err := MetaFor(data.Ty, "b1", "a1")
	if err != nil {
		t.Fatal(err)
	}
	var after float64
	for i := 1; i <= tt; i++ {
		for j := 1; j <= n; j++ {
			for k := 1; k <= m; k++ {
				after += buf.ReadReal(meta.ComputeIndex(i, j, k))
			}
		}
	}
	if before != after {
		t.Fatalf("before = %v, after = %v", before, after)
	}

	// The strength-reduced form (§IV-C's optimization opportunity): hoist
	// ComputeIndex out of the k loop.
	var hoisted float64
	for i := 1; i <= tt; i++ {
		for j := 1; j <= n; j++ {
			base := meta.BaseIndex(i, j)
			for k := 0; k < meta.InnerLen; k++ {
				hoisted += buf.ReadReal(base + k*meta.Stride())
			}
		}
	}
	if hoisted != before {
		t.Fatalf("hoisted = %v, want %v", hoisted, before)
	}
}

func TestMetaForLeafFieldAfterLastArray(t *testing.T) {
	// data[i].b2 — the path ends inside the record after the only array
	// level, so the b2 offset lands in LeafOffset.
	tt, n, m := 3, 4, 5
	szA := m*8 + 8
	meta, err := MetaFor(fig6Type(tt, n, m), "b2")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels != 1 || meta.LeafOffset != n*szA || meta.LeafType.Kind != chapel.KindInt {
		t.Fatalf("meta = %+v", meta)
	}
	data := fig6Data(tt, n, m)
	buf := Linearize(data)
	for i := 1; i <= tt; i++ {
		if got := buf.ReadInt(meta.ComputeIndex(i)); got != int64(i) {
			t.Fatalf("data[%d].b2 = %d", i, got)
		}
	}
	// data[i].b1[j].a2 — trailing selection after the second array level.
	meta2, err := MetaFor(fig6Type(tt, n, m), "b1", "a2")
	if err != nil {
		t.Fatal(err)
	}
	if meta2.Levels != 2 || meta2.LeafOffset != m*8 {
		t.Fatalf("meta2 = %+v", meta2)
	}
	for i := 1; i <= tt; i++ {
		for j := 1; j <= n; j++ {
			if got := buf.ReadInt(meta2.ComputeIndex(i, j)); got != int64(j) {
				t.Fatalf("data[%d].b1[%d].a2 = %d", i, j, got)
			}
		}
	}
}

func TestMetaForDirectlyNestedArrays(t *testing.T) {
	// matrix: [1..r][1..c] real — PCA's shape; junction has no record.
	ty := chapel.ArrayType(chapel.ArrayType(chapel.RealType(), 1, 4), 1, 3)
	meta, err := MetaFor(ty)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels != 2 || meta.UnitSize[0] != 32 || meta.UnitSize[1] != 8 {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.UnitOffset[0][0] != 0 {
		t.Fatalf("junction offset = %v", meta.UnitOffset)
	}
	if got := meta.ComputeIndex(2, 3); got != 32+16 {
		t.Fatalf("index(2,3) = %d", got)
	}
}

func TestMetaForRecordChainBetweenArrays(t *testing.T) {
	// outer: [1..2] Wrap, Wrap { pre: int; inner: Inner },
	// Inner { pad: real; xs: [1..3] real } — a two-record chain folds into
	// one junction offset.
	inner := chapel.RecordType("Inner",
		chapel.Field{Name: "pad", Type: chapel.RealType()},
		chapel.Field{Name: "xs", Type: chapel.ArrayType(chapel.RealType(), 1, 3)})
	wrap := chapel.RecordType("Wrap",
		chapel.Field{Name: "pre", Type: chapel.IntType()},
		chapel.Field{Name: "inner", Type: inner})
	ty := chapel.ArrayType(wrap, 1, 2)
	meta, err := MetaFor(ty, "inner", "xs")
	if err != nil {
		t.Fatal(err)
	}
	if meta.Levels != 2 {
		t.Fatalf("levels = %d", meta.Levels)
	}
	// The chosen junction entry is offset(inner)+offset(xs) = 8 + 8.
	if got := meta.UnitOffset[0][meta.Position[0][0]]; got != 16 {
		t.Fatalf("chain offset = %d, want 16", got)
	}
	// Verify against real data.
	data := chapel.NewArray(ty)
	for i := 1; i <= 2; i++ {
		w := data.At(i).(*chapel.Record)
		in := w.Field("inner").(*chapel.Record)
		for k := 1; k <= 3; k++ {
			in.Field("xs").(*chapel.Array).SetAt(k, &chapel.Real{Val: float64(10*i + k)})
		}
	}
	buf := Linearize(data)
	for i := 1; i <= 2; i++ {
		for k := 1; k <= 3; k++ {
			if got := buf.ReadReal(meta.ComputeIndex(i, k)); got != float64(10*i+k) {
				t.Fatalf("outer[%d].inner.xs[%d] = %v", i, k, got)
			}
		}
	}
}

func TestMetaForNonOneBasedDomains(t *testing.T) {
	// data: [5..9] record { v: [0..2] real } — Lo conversion matters.
	pt := chapel.RecordType("pt", chapel.Field{Name: "v", Type: chapel.ArrayType(chapel.RealType(), 0, 2)})
	ty := chapel.ArrayType(pt, 5, 9)
	meta, err := MetaFor(ty, "v")
	if err != nil {
		t.Fatal(err)
	}
	data := chapel.NewArray(ty)
	for i := 5; i <= 9; i++ {
		r := data.At(i).(*chapel.Record)
		for j := 0; j <= 2; j++ {
			r.Field("v").(*chapel.Array).SetAt(j, &chapel.Real{Val: float64(100*i + j)})
		}
	}
	buf := Linearize(data)
	for i := 5; i <= 9; i++ {
		for j := 0; j <= 2; j++ {
			if got := buf.ReadReal(meta.ComputeIndex(i, j)); got != float64(100*i+j) {
				t.Fatalf("data[%d].v[%d] = %v", i, j, got)
			}
		}
	}
	mustPanic(t, "below-domain index", func() { meta.ComputeIndex(4, 0) })
}

func TestMetaForErrors(t *testing.T) {
	ty := fig6Type(2, 2, 2)
	if _, err := MetaFor(ty, "nope"); err == nil {
		t.Fatal("bad field: want error")
	}
	if _, err := MetaFor(ty); err == nil {
		t.Fatal("short path: want error")
	}
	if _, err := MetaFor(ty, "b1", "a1", "extra"); err == nil {
		t.Fatal("long path: want error")
	}
	if _, err := MetaFor(chapel.IntType()); err == nil {
		t.Fatal("non-array root: want error")
	}
	if _, err := MetaFor(chapel.RecordType("r", chapel.Field{Name: "x", Type: chapel.IntType()}), "x"); err == nil {
		t.Fatal("record root: want error")
	}
}

func TestComputeIndexArityPanics(t *testing.T) {
	meta, err := MetaFor(fig6Type(2, 2, 2), "b1", "a1")
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "too few indices", func() { meta.ComputeIndex(1, 1) })
	mustPanic(t, "BaseIndex arity", func() { meta.BaseIndex(1, 1, 1) })
}

func TestWords(t *testing.T) {
	// All-real 2-level structure converts cleanly to word units.
	pt := chapel.RecordType("pt", chapel.Field{Name: "c", Type: chapel.ArrayType(chapel.RealType(), 1, 4)})
	meta, err := MetaFor(chapel.ArrayType(pt, 1, 10), "c")
	if err != nil {
		t.Fatal(err)
	}
	w, err := meta.Words()
	if err != nil {
		t.Fatal(err)
	}
	if !w.wordUnits || meta.wordUnits {
		t.Fatal("word-unit flags")
	}
	if w.UnitSize[0] != 4 || w.UnitSize[1] != 1 {
		t.Fatalf("word unitSize = %v", w.UnitSize)
	}
	if got := w.ComputeIndex(3, 2); got != 2*4+1 {
		t.Fatalf("word index = %d", got)
	}
	// Words of words is identity.
	w2, err := w.Words()
	if err != nil || w2 != w {
		t.Fatal("Words on word meta should be identity")
	}
	// Int leaf refuses word view.
	intMeta, err := MetaFor(fig6Type(2, 2, 2), "b2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := intMeta.Words(); err == nil {
		t.Fatal("int leaf: want error")
	}
	// Bool in the layout breaks alignment.
	mixed := chapel.ArrayType(chapel.RecordType("m",
		chapel.Field{Name: "flag", Type: chapel.BoolType()},
		chapel.Field{Name: "v", Type: chapel.ArrayType(chapel.RealType(), 1, 2)}), 1, 3)
	mm, err := MetaFor(mixed, "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mm.Words(); err == nil {
		t.Fatal("unaligned layout: want error")
	}
}

// Property: ComputeIndex agrees with the byte offset computed by walking
// the linearized buffer structure directly, for random fig6 shapes and
// random in-domain indices.
func TestPropertyComputeIndexMatchesLayout(t *testing.T) {
	f := func(seed int64, tRaw, nRaw, mRaw uint8) bool {
		tt := int(tRaw%4) + 1
		n := int(nRaw%4) + 1
		m := int(mRaw%4) + 1
		meta, err := MetaFor(fig6Type(tt, n, m), "b1", "a1")
		if err != nil {
			return false
		}
		szA := m*8 + 8
		szB := n*szA + 8
		rng := rand.New(rand.NewSource(seed))
		for trial := 0; trial < 20; trial++ {
			i := rng.Intn(tt) + 1
			j := rng.Intn(n) + 1
			k := rng.Intn(m) + 1
			want := (i-1)*szB + (j-1)*szA + (k-1)*8
			if meta.ComputeIndex(i, j, k) != want {
				return false
			}
			if meta.BaseIndex(i, j) != (i-1)*szB+(j-1)*szA {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}
