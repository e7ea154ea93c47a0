package chapel

import (
	"testing"
)

// fig6Type builds the paper's Figure 6 nested structure:
//
//	record A { a1: [1..m] real; a2: int; }
//	record B { b1: [1..n] A;   b2: int; }
//	data: [1..t] B;
func fig6Type(t, n, m int) *Type {
	a := RecordType("A",
		Field{Name: "a1", Type: ArrayType(RealType(), 1, m)},
		Field{Name: "a2", Type: IntType()})
	b := RecordType("B",
		Field{Name: "b1", Type: ArrayType(a, 1, n)},
		Field{Name: "b2", Type: IntType()})
	return ArrayType(b, 1, t)
}

// fig6Data fills a fig6Type value with data[i].b1[j].a1[k] = i*100 + j*10 + k.
func fig6Data(tt, n, m int) *Array {
	data := NewArray(fig6Type(tt, n, m))
	for i := 1; i <= tt; i++ {
		b := data.At(i).(*Record)
		for j := 1; j <= n; j++ {
			a := b.Field("b1").(*Array).At(j).(*Record)
			for k := 1; k <= m; k++ {
				a.Field("a1").(*Array).SetAt(k, &Real{Val: float64(i*100 + j*10 + k)})
			}
			a.SetField("a2", &Int{Val: int64(j)})
		}
		b.SetField("b2", &Int{Val: int64(i)})
	}
	return data
}

func TestZeroValues(t *testing.T) {
	if Zero(IntType()).(*Int).Val != 0 {
		t.Fatal("zero int")
	}
	if Zero(RealType()).(*Real).Val != 0 {
		t.Fatal("zero real")
	}
	if Zero(BoolType()).(*Bool).Val {
		t.Fatal("zero bool")
	}
	if Zero(StringType(4)).(*String).Val != "" {
		t.Fatal("zero string")
	}
	e := Zero(EnumType("e", "x", "y")).(*Enum)
	if e.Ordinal != 0 || e.Name() != "x" {
		t.Fatal("zero enum")
	}
	arr := Zero(ArrayType(IntType(), 1, 3)).(*Array)
	if arr.Len() != 3 || arr.At(2).(*Int).Val != 0 {
		t.Fatal("zero array")
	}
	rec := Zero(RecordType("r", Field{Name: "x", Type: RealType()})).(*Record)
	if rec.Field("x").(*Real).Val != 0 {
		t.Fatal("zero record")
	}
}

func TestArrayDomainIndexing(t *testing.T) {
	a := NewArray(ArrayType(IntType(), 5, 9))
	a.SetAt(5, &Int{Val: 50})
	a.SetAt(9, &Int{Val: 90})
	if a.At(5).(*Int).Val != 50 || a.At(9).(*Int).Val != 90 {
		t.Fatal("domain indexing broken")
	}
	mustPanic(t, "below lo", func() { a.At(4) })
	mustPanic(t, "above hi", func() { a.At(10) })
	mustPanic(t, "set type mismatch", func() { a.SetAt(5, &Real{Val: 1}) })
	mustPanic(t, "NewArray non-array", func() { NewArray(IntType()) })
}

func TestRecordFields(t *testing.T) {
	ty := RecordType("pt", Field{Name: "x", Type: RealType()}, Field{Name: "y", Type: RealType()})
	r := NewRecord(ty)
	r.SetField("x", &Real{Val: 1.5})
	if r.Field("x").(*Real).Val != 1.5 || r.Field("y").(*Real).Val != 0 {
		t.Fatal("field access broken")
	}
	mustPanic(t, "unknown get", func() { r.Field("z") })
	mustPanic(t, "unknown set", func() { r.SetField("z", &Real{}) })
	mustPanic(t, "set type mismatch", func() { r.SetField("x", &Int{}) })
	mustPanic(t, "NewRecord non-record", func() { NewRecord(IntType()) })
}

func TestStringAndEnumConstruction(t *testing.T) {
	st := StringType(4)
	s := NewString(st, "hello") // truncates
	if s.Val != "hell" {
		t.Fatalf("truncated to %q", s.Val)
	}
	mustPanic(t, "NewString non-string", func() { NewString(IntType(), "x") })
	et := EnumType("color", "red", "green", "blue")
	if NewEnum(et, 2).Name() != "blue" {
		t.Fatal("enum name")
	}
	mustPanic(t, "enum ordinal range", func() { NewEnum(et, 3) })
	mustPanic(t, "NewEnum non-enum", func() { NewEnum(IntType(), 0) })
}

func TestDeepEqual(t *testing.T) {
	if !DeepEqual(&Int{Val: 3}, &Int{Val: 3}) || DeepEqual(&Int{Val: 3}, &Int{Val: 4}) {
		t.Fatal("int equality")
	}
	if DeepEqual(&Int{Val: 3}, &Real{Val: 3}) {
		t.Fatal("cross-type equality")
	}
	st := StringType(8)
	if !DeepEqual(NewString(st, "a"), NewString(st, "a")) || DeepEqual(NewString(st, "a"), NewString(st, "b")) {
		t.Fatal("string equality")
	}
	et := EnumType("e", "x", "y")
	if !DeepEqual(NewEnum(et, 1), NewEnum(et, 1)) || DeepEqual(NewEnum(et, 0), NewEnum(et, 1)) {
		t.Fatal("enum equality")
	}
	if !DeepEqual(&Bool{Val: true}, &Bool{Val: true}) || DeepEqual(&Bool{}, &Bool{Val: true}) {
		t.Fatal("bool equality")
	}
	a, b := fig6Data(2, 2, 2), fig6Data(2, 2, 2)
	if !DeepEqual(a, b) {
		t.Fatal("nested equality")
	}
	b.At(2).(*Record).SetField("b2", &Int{Val: 99})
	if DeepEqual(a, b) {
		t.Fatal("nested inequality missed")
	}
}

func TestAsRealAsInt(t *testing.T) {
	if AsReal(&Int{Val: 3}) != 3 || AsReal(&Real{Val: 2.5}) != 2.5 {
		t.Fatal("AsReal numeric")
	}
	if AsReal(&Bool{Val: true}) != 1 || AsReal(&Bool{}) != 0 {
		t.Fatal("AsReal bool")
	}
	if AsInt(&Int{Val: -7}) != -7 || AsInt(&Bool{Val: true}) != 1 || AsInt(&Bool{}) != 0 {
		t.Fatal("AsInt")
	}
	if AsInt(NewEnum(EnumType("e", "a", "b"), 1)) != 1 {
		t.Fatal("AsInt enum")
	}
	mustPanic(t, "AsReal string", func() { AsReal(NewString(StringType(2), "x")) })
	mustPanic(t, "AsInt real", func() { AsInt(&Real{Val: 1}) })
}

func TestConvenienceArrays(t *testing.T) {
	ra := RealArray(1, 2, 3)
	if ra.Len() != 3 || ra.At(1).(*Real).Val != 1 || ra.At(3).(*Real).Val != 3 {
		t.Fatal("RealArray")
	}
	ia := IntArray(4, 5)
	if ia.Len() != 2 || ia.At(2).(*Int).Val != 5 {
		t.Fatal("IntArray")
	}
	if RealArray().Len() != 0 {
		t.Fatal("empty RealArray")
	}
}
