package chapel

import (
	"strings"
	"testing"
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

func TestPrimitiveSingletons(t *testing.T) {
	if IntType() != IntType() || RealType() != RealType() || BoolType() != BoolType() {
		t.Fatal("primitive types should be singletons")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindInt: "int", KindReal: "real", KindBool: "bool", KindString: "string",
		KindEnum: "enum", KindArray: "array", KindRecord: "record",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "kind(99)" {
		t.Error("unknown kind string")
	}
}

func TestArrayTypeDomain(t *testing.T) {
	a := ArrayType(RealType(), 1, 10)
	if a.Len() != 10 {
		t.Fatalf("Len = %d", a.Len())
	}
	b := ArrayType(IntType(), -3, 3)
	if b.Len() != 7 {
		t.Fatalf("Len = %d", b.Len())
	}
	empty := ArrayType(IntType(), 1, 0)
	if empty.Len() != 0 {
		t.Fatalf("empty Len = %d", empty.Len())
	}
	mustPanic(t, "inverted domain", func() { ArrayType(IntType(), 5, 3) })
	mustPanic(t, "nil elem", func() { ArrayType(nil, 1, 3) })
	mustPanic(t, "Len on scalar", func() { IntType().Len() })
}

func TestConstructorValidation(t *testing.T) {
	mustPanic(t, "string maxlen", func() { StringType(0) })
	mustPanic(t, "empty enum", func() { EnumType("e") })
	mustPanic(t, "empty record", func() { RecordType("r") })
	mustPanic(t, "unnamed field", func() { RecordType("r", Field{Type: IntType()}) })
	mustPanic(t, "nil field type", func() { RecordType("r", Field{Name: "x"}) })
	mustPanic(t, "dup field", func() {
		RecordType("r", Field{Name: "x", Type: IntType()}, Field{Name: "x", Type: IntType()})
	})
}

func TestFieldIndex(t *testing.T) {
	r := RecordType("r", Field{Name: "a", Type: IntType()}, Field{Name: "b", Type: RealType()})
	if r.FieldIndex("a") != 0 || r.FieldIndex("b") != 1 || r.FieldIndex("c") != -1 {
		t.Fatal("FieldIndex wrong")
	}
	mustPanic(t, "FieldIndex on scalar", func() { IntType().FieldIndex("a") })
}

func TestTypeEqual(t *testing.T) {
	pointA := RecordType("point", Field{Name: "xs", Type: ArrayType(RealType(), 1, 3)})
	pointB := RecordType("point", Field{Name: "xs", Type: ArrayType(RealType(), 1, 3)})
	if !pointA.Equal(pointB) {
		t.Fatal("structurally equal records should be Equal")
	}
	cases := []struct{ a, b *Type }{
		{IntType(), RealType()},
		{StringType(4), StringType(8)},
		{EnumType("e", "a"), EnumType("e", "b")},
		{EnumType("e", "a"), EnumType("f", "a")},
		{ArrayType(IntType(), 1, 3), ArrayType(IntType(), 0, 2)},
		{ArrayType(IntType(), 1, 3), ArrayType(RealType(), 1, 3)},
		{pointA, RecordType("point", Field{Name: "ys", Type: ArrayType(RealType(), 1, 3)})},
		{pointA, RecordType("q", Field{Name: "xs", Type: ArrayType(RealType(), 1, 3)})},
		{pointA, nil},
	}
	for i, c := range cases {
		if c.a.Equal(c.b) {
			t.Errorf("case %d: %s should != %s", i, c.a, c.b)
		}
	}
	if !IntType().Equal(IntType()) || !StringType(4).Equal(StringType(4)) {
		t.Fatal("identical types unequal")
	}
}

func TestTypeString(t *testing.T) {
	// The paper's Fig. 6 nested structure renders readably.
	a := RecordType("A",
		Field{Name: "a1", Type: ArrayType(RealType(), 1, 4)},
		Field{Name: "a2", Type: IntType()})
	b := RecordType("B",
		Field{Name: "b1", Type: ArrayType(a, 1, 3)},
		Field{Name: "b2", Type: IntType()})
	s := b.String()
	for _, want := range []string{"record B", "b1: [1..3] record A", "a1: [1..4] real", "a2: int", "b2: int"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if (*Type)(nil).String() != "<nil>" {
		t.Error("nil type string")
	}
	if got := EnumType("color", "red", "green").String(); got != "enum color {red, green}" {
		t.Errorf("enum string = %q", got)
	}
	if got := StringType(16).String(); got != "string(16)" {
		t.Errorf("string type string = %q", got)
	}
}
