package chapel

import (
	"fmt"
)

// Value is a boxed Chapel runtime value. Values are heap-allocated and
// pointer-linked on purpose: they stand in for the nested structures Chapel's
// compiler emits, whose traversal cost is the "accesses to complex Chapel
// structures" overhead the paper's opt-2 removes.
type Value interface {
	// Type returns the value's type descriptor.
	Type() *Type
}

// Int is a Chapel int value.
type Int struct{ Val int64 }

// Type implements Value.
func (*Int) Type() *Type { return intType }

// Real is a Chapel real value.
type Real struct{ Val float64 }

// Type implements Value.
func (*Real) Type() *Type { return realType }

// Bool is a Chapel bool value.
type Bool struct{ Val bool }

// Type implements Value.
func (*Bool) Type() *Type { return boolType }

// String is a bounded Chapel string value.
type String struct {
	Ty  *Type
	Val string
}

// Type implements Value.
func (s *String) Type() *Type { return s.Ty }

// NewString boxes a string value, truncating to the type's MaxLen.
func NewString(ty *Type, v string) *String {
	if ty.Kind != KindString {
		panic("chapel: NewString with non-string type")
	}
	if len(v) > ty.MaxLen {
		v = v[:ty.MaxLen]
	}
	return &String{Ty: ty, Val: v}
}

// Enum is an enumerated value identified by ordinal.
type Enum struct {
	Ty      *Type
	Ordinal int
}

// Type implements Value.
func (e *Enum) Type() *Type { return e.Ty }

// Name returns the enum constant's declared name.
func (e *Enum) Name() string { return e.Ty.Consts[e.Ordinal] }

// NewEnum boxes an enum value by ordinal.
func NewEnum(ty *Type, ordinal int) *Enum {
	if ty.Kind != KindEnum {
		panic("chapel: NewEnum with non-enum type")
	}
	if ordinal < 0 || ordinal >= len(ty.Consts) {
		panic(fmt.Sprintf("chapel: enum ordinal %d out of range for %s", ordinal, ty))
	}
	return &Enum{Ty: ty, Ordinal: ordinal}
}

// Array is a boxed Chapel array. Elements are themselves boxed Values;
// indexing uses the type's declared domain [Lo..Hi], Chapel-style.
type Array struct {
	Ty    *Type
	Elems []Value
}

// Type implements Value.
func (a *Array) Type() *Type { return a.Ty }

// NewArray allocates an array with every element set to its zero value.
func NewArray(ty *Type) *Array {
	if ty.Kind != KindArray {
		panic("chapel: NewArray with non-array type")
	}
	n := ty.Len()
	elems := make([]Value, n)
	for i := range elems {
		elems[i] = Zero(ty.Elem)
	}
	return &Array{Ty: ty, Elems: elems}
}

// At returns the element at domain index i (Lo ≤ i ≤ Hi).
func (a *Array) At(i int) Value {
	return a.Elems[a.offset(i)]
}

// SetAt replaces the element at domain index i.
func (a *Array) SetAt(i int, v Value) {
	if !v.Type().Equal(a.Ty.Elem) {
		panic(fmt.Sprintf("chapel: SetAt type mismatch: %s into %s", v.Type(), a.Ty))
	}
	a.Elems[a.offset(i)] = v
}

// offset maps a domain index to a slice index. The domain check stays a
// panic: accesses issued by a verified translation are proven in-domain at
// translate time (core.Verify, FRV010), so on the hot path this only guards
// hand-written code indexing an array directly.
func (a *Array) offset(i int) int {
	if i < a.Ty.Lo || i > a.Ty.Hi {
		panic(fmt.Sprintf("chapel: index %d out of domain [%d..%d]", i, a.Ty.Lo, a.Ty.Hi))
	}
	return i - a.Ty.Lo
}

// Len reports the number of elements.
func (a *Array) Len() int { return len(a.Elems) }

// Record is a boxed Chapel record; fields are in declaration order.
type Record struct {
	Ty     *Type
	Fields []Value
}

// Type implements Value.
func (r *Record) Type() *Type { return r.Ty }

// NewRecord allocates a record with every field set to its zero value.
func NewRecord(ty *Type) *Record {
	if ty.Kind != KindRecord {
		panic("chapel: NewRecord with non-record type")
	}
	fields := make([]Value, len(ty.Fields))
	for i, f := range ty.Fields {
		fields[i] = Zero(f.Type)
	}
	return &Record{Ty: ty, Fields: fields}
}

// Field returns the named field's value.
func (r *Record) Field(name string) Value {
	i := r.Ty.FieldIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("chapel: record %s has no field %q", r.Ty.Name, name))
	}
	return r.Fields[i]
}

// SetField replaces the named field's value.
func (r *Record) SetField(name string, v Value) {
	i := r.Ty.FieldIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("chapel: record %s has no field %q", r.Ty.Name, name))
	}
	if !v.Type().Equal(r.Ty.Fields[i].Type) {
		panic(fmt.Sprintf("chapel: SetField type mismatch: %s into field %q: %s",
			v.Type(), name, r.Ty.Fields[i].Type))
	}
	r.Fields[i] = v
}

// Zero returns the zero value of a type: 0, 0.0, false, "", the first enum
// constant, and recursively-zeroed arrays and records.
func Zero(ty *Type) Value {
	switch ty.Kind {
	case KindInt:
		return &Int{}
	case KindReal:
		return &Real{}
	case KindBool:
		return &Bool{}
	case KindString:
		return &String{Ty: ty}
	case KindEnum:
		return &Enum{Ty: ty}
	case KindArray:
		return NewArray(ty)
	case KindRecord:
		return NewRecord(ty)
	default:
		panic("chapel: Zero of unknown kind " + ty.Kind.String())
	}
}

// DeepEqual reports whether two values have equal types and contents.
func DeepEqual(a, b Value) bool {
	if !a.Type().Equal(b.Type()) {
		return false
	}
	switch x := a.(type) {
	case *Int:
		return x.Val == b.(*Int).Val
	case *Real:
		return x.Val == b.(*Real).Val
	case *Bool:
		return x.Val == b.(*Bool).Val
	case *String:
		return x.Val == b.(*String).Val
	case *Enum:
		return x.Ordinal == b.(*Enum).Ordinal
	case *Array:
		y := b.(*Array)
		for i := range x.Elems {
			if !DeepEqual(x.Elems[i], y.Elems[i]) {
				return false
			}
		}
		return true
	case *Record:
		y := b.(*Record)
		for i := range x.Fields {
			if !DeepEqual(x.Fields[i], y.Fields[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// AsReal extracts a numeric value as float64 (ints widen), panicking on
// non-numeric values; it is the dynamic coercion Chapel's numeric contexts
// perform.
func AsReal(v Value) float64 {
	switch x := v.(type) {
	case *Real:
		return x.Val
	case *Int:
		return float64(x.Val)
	case *Bool:
		if x.Val {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("chapel: AsReal of %s", v.Type()))
	}
}

// AsInt extracts an integer value as int64 (bools widen), panicking on
// non-integral values.
func AsInt(v Value) int64 {
	switch x := v.(type) {
	case *Int:
		return x.Val
	case *Enum:
		return int64(x.Ordinal)
	case *Bool:
		if x.Val {
			return 1
		}
		return 0
	default:
		panic(fmt.Sprintf("chapel: AsInt of %s", v.Type()))
	}
}

// RealArray builds a boxed [1..len(vals)] real array from a Go slice —
// a convenience for constructing Chapel-side datasets in tests and apps.
func RealArray(vals ...float64) *Array {
	ty := ArrayType(RealType(), 1, len(vals))
	a := NewArray(ty)
	for i, v := range vals {
		a.SetAt(i+1, &Real{Val: v})
	}
	return a
}

// IntArray builds a boxed [1..len(vals)] int array from a Go slice.
func IntArray(vals ...int64) *Array {
	ty := ArrayType(IntType(), 1, len(vals))
	a := NewArray(ty)
	for i, v := range vals {
		a.SetAt(i+1, &Int{Val: v})
	}
	return a
}
