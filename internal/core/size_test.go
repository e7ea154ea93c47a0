package core

import (
	"testing"

	"chapelfreeride/internal/chapel"
)

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

// fig6Type builds the paper's Fig. 6 structure:
//
//	record A { a1: [1..m] real; a2: int; }
//	record B { b1: [1..n] A;   b2: int; }
//	data: [1..t] B;
func fig6Type(t, n, m int) *chapel.Type {
	a := chapel.RecordType("A",
		chapel.Field{Name: "a1", Type: chapel.ArrayType(chapel.RealType(), 1, m)},
		chapel.Field{Name: "a2", Type: chapel.IntType()})
	b := chapel.RecordType("B",
		chapel.Field{Name: "b1", Type: chapel.ArrayType(a, 1, n)},
		chapel.Field{Name: "b2", Type: chapel.IntType()})
	return chapel.ArrayType(b, 1, t)
}

// fig6Data fills a fig6 value with data[i].b1[j].a1[k] = i*10000 + j*100 + k.
func fig6Data(tt, n, m int) *chapel.Array {
	data := chapel.NewArray(fig6Type(tt, n, m))
	for i := 1; i <= tt; i++ {
		b := data.At(i).(*chapel.Record)
		for j := 1; j <= n; j++ {
			a := b.Field("b1").(*chapel.Array).At(j).(*chapel.Record)
			for k := 1; k <= m; k++ {
				a.Field("a1").(*chapel.Array).SetAt(k, &chapel.Real{Val: float64(i*10000 + j*100 + k)})
			}
			a.SetField("a2", &chapel.Int{Val: int64(j)})
		}
		b.SetField("b2", &chapel.Int{Val: int64(i)})
	}
	return data
}

func TestSizeOfPrimitives(t *testing.T) {
	cases := map[*chapel.Type]int{
		chapel.IntType():                          8,
		chapel.RealType():                         8,
		chapel.BoolType():                         1,
		chapel.StringType(12):                     12,
		chapel.EnumType("e", "a", "b"):            8,
		chapel.ArrayType(chapel.RealType(), 1, 5): 40,
		chapel.ArrayType(chapel.BoolType(), 0, 9): 10,
	}
	for ty, want := range cases {
		if got := SizeOf(ty); got != want {
			t.Errorf("SizeOf(%s) = %d, want %d", ty, got, want)
		}
	}
}

func TestSizeOfNested(t *testing.T) {
	// A = m reals + int; B = n*A + int; data = t*B.
	tt, n, m := 3, 4, 5
	szA := m*8 + 8
	szB := n*szA + 8
	if got := SizeOf(fig6Type(tt, n, m)); got != tt*szB {
		t.Fatalf("SizeOf(fig6) = %d, want %d", got, tt*szB)
	}
}

func TestComputeLinearizeSizeMatchesSizeOf(t *testing.T) {
	vals := []chapel.Value{
		&chapel.Int{Val: 3},
		&chapel.Real{Val: 1.5},
		&chapel.Bool{Val: true},
		chapel.NewString(chapel.StringType(6), "hey"),
		chapel.NewEnum(chapel.EnumType("e", "x", "y"), 1),
		fig6Data(2, 3, 4),
		chapel.RealArray(1, 2, 3),
	}
	for _, v := range vals {
		if got, want := ComputeLinearizeSize(v), SizeOf(v.Type()); got != want {
			t.Errorf("ComputeLinearizeSize(%s) = %d, want %d", v.Type(), got, want)
		}
	}
}

func TestExprLinearizeSize(t *testing.T) {
	e := chapel.Zip(chapel.OpPlus, chapel.Over(chapel.RealArray(1, 2)), chapel.Over(chapel.RealArray(3, 4)))
	if got := ExprLinearizeSize(e); got != 16 {
		t.Fatalf("ExprLinearizeSize = %d", got)
	}
	r := chapel.RangeExpr{Lo: 1, Hi: 10}
	if got := ExprLinearizeSize(r); got != 80 {
		t.Fatalf("range size = %d", got)
	}
}

func TestFieldOffsets(t *testing.T) {
	rec := chapel.RecordType("r",
		chapel.Field{Name: "a", Type: chapel.ArrayType(chapel.RealType(), 1, 3)}, // 24 bytes
		chapel.Field{Name: "b", Type: chapel.BoolType()},                         // 1 byte
		chapel.Field{Name: "c", Type: chapel.IntType()},                          // 8 bytes
	)
	offs := FieldOffsets(rec)
	if offs[0] != 0 || offs[1] != 24 || offs[2] != 25 {
		t.Fatalf("offsets = %v", offs)
	}
	mustPanic(t, "non-record offsets", func() { FieldOffsets(chapel.IntType()) })
	mustPanic(t, "SizeOf unknown kind", func() { SizeOf(&chapel.Type{Kind: chapel.Kind(99)}) })
}

func TestAllReal(t *testing.T) {
	pt := chapel.RecordType("pt", chapel.Field{Name: "c", Type: chapel.ArrayType(chapel.RealType(), 1, 4)})
	if !AllReal(chapel.ArrayType(pt, 1, 10)) {
		t.Fatal("array of real-record should be all-real")
	}
	if !AllReal(chapel.RealType()) {
		t.Fatal("real is all-real")
	}
	if AllReal(chapel.IntType()) || AllReal(fig6Type(1, 1, 1)) {
		t.Fatal("types with int leaves are not all-real")
	}
	withBool := chapel.RecordType("wb",
		chapel.Field{Name: "x", Type: chapel.RealType()},
		chapel.Field{Name: "ok", Type: chapel.BoolType()})
	if AllReal(withBool) {
		t.Fatal("bool leaf is not all-real")
	}
}
