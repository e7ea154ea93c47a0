// Package apps implements the paper's evaluation applications — k-means
// clustering and Principal Component Analysis — in every version the paper
// compares (§V), plus expectation-maximization and the sparse SpMV reduction
// that exercise the same generalized reduction structure.
//
// Versions per application:
//
//	Seq          — sequential reference implementation (ground truth)
//	ChapelNative — the paper's Fig. 3 style: a chapel.ReduceScanOp over
//	               boxed Chapel data, run by the pure Chapel runtime
//	Generated    — Chapel translated to FREERIDE, no optimizations (OptNone)
//	Opt1         — + strength reduction of ComputeIndex
//	Opt2         — + hot-variable linearization
//	Opt3         — + split-granular kernel fusion (beyond the paper)
//	ManualFR     — hand-written against the FREERIDE API (the paper's
//	               "manual FR")
//	MapReduce    — the Phoenix-style Map-Reduce baseline (Fig. 4, right)
//
// All versions of an application make identical algorithmic decisions
// (nearest-centroid ties resolve to the lowest index, identical update
// rules), so on integer-valued inputs they produce bit-identical results —
// which the tests assert.
package apps

import (
	"fmt"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
)

// Version identifies one implementation of an application.
type Version int

const (
	// Seq is the sequential reference.
	Seq Version = iota
	// ChapelNative runs the reduction on the pure Chapel runtime analog.
	ChapelNative
	// Generated is the unoptimized Chapel→FREERIDE translation.
	Generated
	// Opt1 adds strength reduction.
	Opt1
	// Opt2 adds hot-variable linearization.
	Opt2
	// Opt3 adds split-granular kernel fusion (beyond the paper: the engine
	// runs a devirtualized block kernel per split instead of the per-element
	// callback, flushing worker-local buffers into the reduction object once
	// per split).
	Opt3
	// ManualFR is hand-written FREERIDE code.
	ManualFR
	// MapReduce is the Map-Reduce baseline.
	MapReduce
)

// String returns the version's name as used in the paper's figures.
func (v Version) String() string {
	switch v {
	case Seq:
		return "sequential"
	case ChapelNative:
		return "chapel-native"
	case Generated:
		return "generated"
	case Opt1:
		return "opt-1"
	case Opt2:
		return "opt-2"
	case Opt3:
		return "opt-3"
	case ManualFR:
		return "manual FR"
	case MapReduce:
		return "map-reduce"
	default:
		return fmt.Sprintf("version(%d)", int(v))
	}
}

// Timing is the phase breakdown shared by the applications.
type Timing struct {
	// Linearize is the input linearization cost (translated versions only;
	// the paper's overhead source 1, which the paper pays on one core and
	// core spreads over up to GOMAXPROCS workers).
	Linearize time.Duration
	// HotVar is the opt-2 hot-variable (re)linearization cost.
	HotVar time.Duration
	// Reduce is the total parallel reduction wall time across iterations.
	Reduce time.Duration
	// Update is the non-reduction algorithmic work (e.g. centroid update).
	Update time.Duration
}

// Total returns the end-to-end wall time.
func (t Timing) Total() time.Duration { return t.Linearize + t.HotVar + t.Reduce + t.Update }

// BoxPoints converts an n×dim matrix into the boxed Chapel dataset the
// paper's k-means operates on: [1..n] Point where Point is
// record { coords: [1..dim] real } — the nested structure whose
// linearization the translator performs.
func BoxPoints(m *dataset.Matrix) *chapel.Array {
	pt := chapel.RecordType("Point",
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, m.Cols)})
	data := chapel.NewArray(chapel.ArrayType(pt, 1, m.Rows))
	for i := 0; i < m.Rows; i++ {
		coords := data.At(i + 1).(*chapel.Record).Field("coords").(*chapel.Array)
		row := m.Row(i)
		for j := 0; j < m.Cols; j++ {
			coords.SetAt(j+1, &chapel.Real{Val: row[j]})
		}
	}
	return data
}

// BoxMatrix converts an n×dim matrix into a boxed Chapel array-of-arrays
// [1..n][1..dim] real — PCA's data shape, which "does not use complex or
// nested data structures" (no records).
func BoxMatrix(m *dataset.Matrix) *chapel.Array {
	rowTy := chapel.ArrayType(chapel.RealType(), 1, m.Cols)
	data := chapel.NewArray(chapel.ArrayType(rowTy, 1, m.Rows))
	for i := 0; i < m.Rows; i++ {
		boxedRow := data.At(i + 1).(*chapel.Array)
		row := m.Row(i)
		for j := 0; j < m.Cols; j++ {
			boxedRow.SetAt(j+1, &chapel.Real{Val: row[j]})
		}
	}
	return data
}

// BoxVector converts a vector into a boxed [1..n] real Chapel array.
func BoxVector(v []float64) *chapel.Array {
	return chapel.RealArray(v...)
}

// gatherRows copies a hot variable with no dense view into flat (elems×width,
// row-major) one row at a time and returns it; row is the scratch a boxed
// row is materialized through.
func gatherRows(sv *core.StateVec, flat, row []float64) []float64 {
	w := sv.Width()
	for e := 0; e < sv.Elems(); e++ {
		copy(flat[e*w:(e+1)*w], sv.Row(e+1, row))
	}
	return flat
}
