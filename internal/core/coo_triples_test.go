package core_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
)

// boxedCOO is the oracle for COOFromTriples: the paper's path, which boxes
// the triples as Chapel nz records and linearizes them back. No nnz×3
// matrix holds a word count that is not a multiple of 3, so the boxed path
// cannot accept one either.
func boxedCOO(words []float64, rows, cols int) (*core.SparseCOO, error) {
	if len(words)%3 != 0 {
		return nil, errors.New("ragged word count")
	}
	m := &dataset.Matrix{Rows: len(words) / 3, Cols: 3, Data: words}
	return core.LinearizeCOO(apps.BoxTriples(m), rows, cols)
}

// checkCOOAgree fails t unless both builders reject the triples or both
// return the same COO, values compared bit for bit.
func checkCOOAgree(t *testing.T, words []float64, rows, cols int) {
	t.Helper()
	want, wantErr := boxedCOO(words, rows, cols)
	got, gotErr := core.COOFromTriples(words, rows, cols)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("COOFromTriples(%v, %d, %d) error %v, boxed path error %v", words, rows, cols, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.R) != len(want.R) ||
		len(got.C) != len(want.C) || len(got.V) != len(want.V) {
		t.Fatalf("COOFromTriples shape %dx%d nnz %d/%d/%d, boxed path %dx%d nnz %d/%d/%d",
			got.Rows, got.Cols, len(got.R), len(got.C), len(got.V),
			want.Rows, want.Cols, len(want.R), len(want.C), len(want.V))
	}
	for i := range want.R {
		if got.R[i] != want.R[i] || got.C[i] != want.C[i] ||
			math.Float64bits(got.V[i]) != math.Float64bits(want.V[i]) {
			t.Fatalf("entry %d = (%d, %d, %v), boxed path (%d, %d, %v)",
				i, got.R[i], got.C[i], got.V[i], want.R[i], want.C[i], want.V[i])
		}
	}
}

// TestCOOFromTriplesMatchesLinearizeCOO: building the COO from flat triples
// accepts and rejects exactly what boxing them and calling LinearizeCOO
// does, and accepted triples give the same entries.
func TestCOOFromTriplesMatchesLinearizeCOO(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		words      []float64
		rows, cols int
		wantErr    bool
	}{
		{name: "out of CSR order", words: []float64{2, 0, 5, 0, 1, 2, 1, 3, 7, 0, 0, 1}, rows: 3, cols: 4},
		{name: "duplicates", words: []float64{1, 2, 3, 1, 2, -5, 1, 2, 3}, rows: 2, cols: 3},
		{name: "empty", words: nil, rows: 3, cols: 4},
		{name: "negative coordinate", words: []float64{-1, 0, 1, 0, -7, 2}, rows: 2, cols: 2},
		{name: "out-of-range coordinate", words: []float64{5, 9, 1}, rows: 2, cols: 2},
		{name: "negative zero", words: []float64{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1)}, rows: 1, cols: 1},
		{name: "NaN and infinite values", words: []float64{0, 0, nan, 0, 1, inf, 1, 0, -inf}, rows: 2, cols: 2},
		{name: "MaxInt32", words: []float64{math.MaxInt32, 0, 1, 0, math.MaxInt32, 1}, rows: 2, cols: 2},
		{name: "MinInt32", words: []float64{math.MinInt32, 0, 1}, rows: 2, cols: 2},
		// A fraction the 1-based step rounds away is a whole coordinate on
		// both paths, because both take that step.
		{name: "fraction below the 1-based ulp", words: []float64{1e-300, -1e-17, 1}, rows: 2, cols: 2},
		{name: "fractional row", words: []float64{0.5, 0, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "fractional column", words: []float64{0, 1, 1, 1, 2.25, 1}, rows: 2, cols: 3, wantErr: true},
		{name: "NaN row", words: []float64{nan, 0, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "NaN column", words: []float64{0, nan, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "+Inf row", words: []float64{inf, 0, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "-Inf column", words: []float64{0, -inf, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "MaxInt32+1", words: []float64{math.MaxInt32 + 1, 0, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "MinInt32-1", words: []float64{0, math.MinInt32 - 1, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "ragged word count", words: []float64{0, 0, 1, 1}, rows: 2, cols: 2, wantErr: true},
		{name: "negative shape", words: []float64{0, 0, 1}, rows: -1, cols: 2, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCOOAgree(t, tc.words, tc.rows, tc.cols)
			if _, err := core.COOFromTriples(tc.words, tc.rows, tc.cols); (err != nil) != tc.wantErr {
				t.Fatalf("COOFromTriples error %v, want error %v", err, tc.wantErr)
			}
		})
	}
}

// FuzzCOOFromTriples reads raw as little-endian float64 words (trailing
// bytes dropped). The oracle is the boxed path: both builders accept or
// both reject, accepted triples give bit-identical R, C and V, and neither
// panics.
func FuzzCOOFromTriples(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, rows, cols int) {
		words := make([]float64, len(raw)/8)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkCOOAgree(t, words, rows, cols)
	})
}
