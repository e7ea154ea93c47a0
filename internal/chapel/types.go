// Package chapel is a runtime analog of the Chapel language features the
// paper relies on: the data model (primitive types, 1-based arrays over
// ranges, records, enums), boxed runtime values that mirror the nested
// heap structures Chapel's compiler emits, iterable expressions (so a
// reduction can range over expressions like A+B), and the reduction
// mechanism — the ReduceScanOp class with its accumulate / combine /
// generate stages (Fig. 2 of the paper) plus a global-view parallel Reduce.
//
// The reproduction bands rule out real compiler tooling, so this package is
// the substitution for the Chapel front end: programs written against it
// have the same shape as the paper's Chapel code (compare Fig. 3 with
// apps.KMeansChapelOp), and its boxed values have the same
// pointer-chasing access cost that the paper's opt-2 transformation exists
// to eliminate.
package chapel

import (
	"fmt"
	"strings"
)

// Kind discriminates Chapel type descriptors.
type Kind int

const (
	// KindInt is Chapel's default int (64-bit).
	KindInt Kind = iota
	// KindReal is Chapel's default real (64-bit float).
	KindReal
	// KindBool is Chapel's bool.
	KindBool
	// KindString is a bounded string (a max width must be declared for
	// linearization, which needs fixed-size slots).
	KindString
	// KindEnum is an enumerated type; values are ordinals.
	KindEnum
	// KindArray is a 1-dimensional array over an inclusive range [Lo..Hi].
	KindArray
	// KindRecord is a record (compiled to a C struct by Chapel).
	KindRecord
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindReal:
		return "real"
	case KindBool:
		return "bool"
	case KindString:
		return "string"
	case KindEnum:
		return "enum"
	case KindArray:
		return "array"
	case KindRecord:
		return "record"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Field is one member of a record type.
type Field struct {
	Name string
	Type *Type
}

// Type is a Chapel type descriptor. Construct with the typed constructors
// (IntType, ArrayType, RecordType, ...); Types are immutable once built and
// safe to share.
type Type struct {
	Kind Kind
	// Name is the declared name for records and enums.
	Name string
	// Elem is the element type for arrays.
	Elem *Type
	// Lo, Hi bound the array domain [Lo..Hi], inclusive, Chapel-style.
	Lo, Hi int
	// Fields are the record members, in declaration order.
	Fields []Field
	// Consts are the enum constant names, in ordinal order.
	Consts []string
	// MaxLen is the declared byte width for strings.
	MaxLen int
}

var (
	intType  = &Type{Kind: KindInt}
	realType = &Type{Kind: KindReal}
	boolType = &Type{Kind: KindBool}
)

// IntType returns the int type descriptor.
func IntType() *Type { return intType }

// RealType returns the real type descriptor.
func RealType() *Type { return realType }

// BoolType returns the bool type descriptor.
func BoolType() *Type { return boolType }

// StringType returns a bounded string type with the given maximum byte
// length, which linearization uses as the fixed slot width.
func StringType(maxLen int) *Type {
	if maxLen < 1 {
		panic("chapel: StringType needs maxLen >= 1")
	}
	return &Type{Kind: KindString, MaxLen: maxLen}
}

// EnumType declares an enumerated type with the given constants.
func EnumType(name string, consts ...string) *Type {
	if len(consts) == 0 {
		panic("chapel: EnumType needs at least one constant")
	}
	return &Type{Kind: KindEnum, Name: name, Consts: consts}
}

// ArrayType declares a 1-D array type over the inclusive domain [lo..hi].
func ArrayType(elem *Type, lo, hi int) *Type {
	if elem == nil {
		panic("chapel: ArrayType needs an element type")
	}
	if hi < lo-1 { // hi == lo-1 is the empty domain
		panic(fmt.Sprintf("chapel: invalid array domain [%d..%d]", lo, hi))
	}
	return &Type{Kind: KindArray, Elem: elem, Lo: lo, Hi: hi}
}

// RecordType declares a record with the given fields.
func RecordType(name string, fields ...Field) *Type {
	if len(fields) == 0 {
		panic("chapel: RecordType needs at least one field")
	}
	seen := map[string]bool{}
	for _, f := range fields {
		if f.Name == "" || f.Type == nil {
			panic("chapel: record field needs a name and a type")
		}
		if seen[f.Name] {
			panic(fmt.Sprintf("chapel: duplicate field %q in record %q", f.Name, name))
		}
		seen[f.Name] = true
	}
	return &Type{Kind: KindRecord, Name: name, Fields: append([]Field(nil), fields...)}
}

// Len reports the number of elements of an array type's domain.
func (t *Type) Len() int {
	if t.Kind != KindArray {
		panic("chapel: Len on non-array type " + t.String())
	}
	return t.Hi - t.Lo + 1
}

// FieldIndex returns the position of the named field in a record type, or
// -1 if absent.
func (t *Type) FieldIndex(name string) int {
	if t.Kind != KindRecord {
		panic("chapel: FieldIndex on non-record type " + t.String())
	}
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Equal reports structural type equality (names included for records and
// enums).
func (t *Type) Equal(o *Type) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case KindString:
		return t.MaxLen == o.MaxLen
	case KindEnum:
		if t.Name != o.Name || len(t.Consts) != len(o.Consts) {
			return false
		}
		for i := range t.Consts {
			if t.Consts[i] != o.Consts[i] {
				return false
			}
		}
		return true
	case KindArray:
		return t.Lo == o.Lo && t.Hi == o.Hi && t.Elem.Equal(o.Elem)
	case KindRecord:
		if t.Name != o.Name || len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the type in Chapel-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindInt, KindReal, KindBool:
		return t.Kind.String()
	case KindString:
		return fmt.Sprintf("string(%d)", t.MaxLen)
	case KindEnum:
		return fmt.Sprintf("enum %s {%s}", t.Name, strings.Join(t.Consts, ", "))
	case KindArray:
		return fmt.Sprintf("[%d..%d] %s", t.Lo, t.Hi, t.Elem)
	case KindRecord:
		parts := make([]string, len(t.Fields))
		for i, f := range t.Fields {
			parts[i] = f.Name + ": " + f.Type.String()
		}
		return fmt.Sprintf("record %s {%s}", t.Name, strings.Join(parts, "; "))
	default:
		return t.Kind.String()
	}
}
