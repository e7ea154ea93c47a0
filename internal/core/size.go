// Package core implements the paper's primary contribution: the compiler
// transformations that let Chapel reductions invoke the FREERIDE middleware.
//
// It contains the linearization algorithms (Algorithms 1 and 2:
// ComputeLinearizeSize and Linearize), the metadata collected during
// linearization (Fig. 6: levels, unitSize[], unitOffset[][], position[][]),
// the index-mapping algorithm (Algorithm 3: Meta.ComputeIndex, Fig. 8), and
// the translator that assembles FREERIDE reduction specs from Chapel
// reduction classes at three optimization levels — generated (OptNone),
// opt-1 (strength reduction: ComputeIndex hoisted out of the innermost
// loop), and opt-2 (opt-1 plus linearization of frequently-accessed hot
// variables).
//
// Formally (paper §IV-A): with Dv the high-level data view and Ds the dense
// low-level storage, Linearize computes the transformation Ft: Dv → Ds and
// Meta.ComputeIndex the mapping M: Dv → Ds used to apply the original
// operation logic to the linearized storage.
package core

import (
	"chapelfreeride/internal/chapel"
)

// Primitive slot widths in bytes. Chapel's default int and real are 64-bit;
// enums linearize as their ordinal in a full word; bools as one byte;
// strings as their declared fixed width.
const (
	intSize  = 8
	realSize = 8
	boolSize = 1
	enumSize = 8
)

// SizeOf is the type-level form of Algorithm 1 (computeLinearizeSize): the
// number of bytes the type occupies in linearized storage.
//
// Primitive types map directly (line 2-3 of the algorithm); arrays reduce to
// the element size times the domain length (lines 4-7, with the refinement
// that fixed-shape types need no per-element walk); records sum their
// members (lines 8-11).
func SizeOf(ty *chapel.Type) int {
	switch ty.Kind {
	case chapel.KindInt:
		return intSize
	case chapel.KindReal:
		return realSize
	case chapel.KindBool:
		return boolSize
	case chapel.KindString:
		return ty.MaxLen
	case chapel.KindEnum:
		return enumSize
	case chapel.KindArray:
		return ty.Len() * SizeOf(ty.Elem)
	case chapel.KindRecord:
		size := 0
		for _, f := range ty.Fields {
			size += SizeOf(f.Type)
		}
		return size
	default:
		panic("core: SizeOf of unknown kind " + ty.Kind.String())
	}
}

// ComputeLinearizeSize is Algorithm 1 over a runtime value: the number of
// bytes needed to linearize it. For the fixed-shape types this package
// supports it coincides with SizeOf of the value's type; it exists (and
// recurses over the value) to mirror the paper's presentation.
func ComputeLinearizeSize(v chapel.Value) int {
	switch x := v.(type) {
	case *chapel.Array:
		size := 0
		for _, e := range x.Elems {
			size += ComputeLinearizeSize(e)
		}
		return size
	case *chapel.Record:
		size := 0
		for _, f := range x.Fields {
			size += ComputeLinearizeSize(f)
		}
		return size
	default:
		return SizeOf(v.Type())
	}
}

// ExprLinearizeSize is Algorithm 1 for an iterative expression (the
// `isIterative` branch): the expression's length times its element size.
func ExprLinearizeSize(e chapel.Expr) int {
	return e.Len() * SizeOf(e.ElemType())
}

// FieldOffsets returns the byte offsets of every field of record type ty —
// one row of the paper's unitOffset[][] table.
func FieldOffsets(ty *chapel.Type) []int {
	if ty.Kind != chapel.KindRecord {
		panic("core: FieldOffsets on non-record " + ty.String())
	}
	offs := make([]int, len(ty.Fields))
	off := 0
	for i, f := range ty.Fields {
		offs[i] = off
		off += SizeOf(f.Type)
	}
	return offs
}

// AllReal reports whether every primitive leaf of the type is a real — the
// precondition for viewing linearized storage as 8-byte words and handing it
// to FREERIDE's float-row engine.
func AllReal(ty *chapel.Type) bool {
	switch ty.Kind {
	case chapel.KindReal:
		return true
	case chapel.KindArray:
		return AllReal(ty.Elem)
	case chapel.KindRecord:
		for _, f := range ty.Fields {
			if !AllReal(f.Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}
