package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewMatrixAndAccessors(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	if m.Row(1)[2] != 7.5 {
		t.Fatal("Row aliasing broken")
	}
	if m.SizeBytes() != 96 {
		t.Fatalf("SizeBytes = %d", m.SizeBytes())
	}
}

func TestNewMatrixPanicsOnNegativeShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMatrix(-1, 2)
}

func TestCloneAndEqual(t *testing.T) {
	m := UniformMatrix(5, 3, 1, -1, 1)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Set(0, 0, 99)
	if m.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if m.Equal(NewMatrix(5, 4)) || m.Equal(NewMatrix(4, 3)) {
		t.Fatal("shape mismatch should not be equal")
	}
	// NaN equality: matrices with NaN in the same slot compare equal.
	a, b := NewMatrix(1, 1), NewMatrix(1, 1)
	a.Set(0, 0, math.NaN())
	b.Set(0, 0, math.NaN())
	if !a.Equal(b) {
		t.Fatal("NaN cells should compare equal")
	}
}

func TestGaussianMixtureDeterministicAndShaped(t *testing.T) {
	p1, c1 := GaussianMixture(1000, 4, 5, 42)
	p2, c2 := GaussianMixture(1000, 4, 5, 42)
	if !p1.Equal(p2) || !c1.Equal(c2) {
		t.Fatal("GaussianMixture not deterministic")
	}
	p3, _ := GaussianMixture(1000, 4, 5, 43)
	if p1.Equal(p3) {
		t.Fatal("different seeds should differ")
	}
	if p1.Rows != 1000 || p1.Cols != 4 || c1.Rows != 5 || c1.Cols != 4 {
		t.Fatal("bad shapes")
	}
	// Points should be near some center (unit variance, spread 10): the mean
	// min-distance should be far below the typical inter-center distance.
	var sum float64
	for r := 0; r < p1.Rows; r++ {
		best := math.Inf(1)
		for c := 0; c < c1.Rows; c++ {
			var d float64
			for j := 0; j < 4; j++ {
				diff := p1.At(r, j) - c1.At(c, j)
				d += diff * diff
			}
			if d < best {
				best = d
			}
		}
		sum += math.Sqrt(best)
	}
	if mean := sum / float64(p1.Rows); mean > 4 {
		t.Fatalf("mean distance to nearest true center = %v, want clustered data", mean)
	}
}

func TestGaussianMixturePanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GaussianMixture(10, 2, 0, 1)
}

func TestUniformMatrixBoundsAndDeterminism(t *testing.T) {
	m := UniformMatrix(100, 10, 7, 2, 5)
	for _, v := range m.Data {
		if v < 2 || v >= 5 {
			t.Fatalf("value %v out of [2,5)", v)
		}
	}
	if !m.Equal(UniformMatrix(100, 10, 7, 2, 5)) {
		t.Fatal("UniformMatrix not deterministic")
	}
}

func TestKMeansPointsForBytes(t *testing.T) {
	// 12 MB at dim=10: 12*1024*1024 / 80 = 157286 rows.
	if got := KMeansPointsForBytes(12*1024*1024, 10); got != 157286 {
		t.Fatalf("got %d", got)
	}
	if got := KMeansPointsForBytes(1, 10); got != 1 {
		t.Fatalf("minimum should be 1, got %d", got)
	}
}

func TestKMeansPointsForBytesPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	KMeansPointsForBytes(100, 0)
}

// frdsBytes serializes m in the given layout.
func frdsBytes(t *testing.T, m *Matrix, layout Layout) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteLayout(&buf, m, layout); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opens are the two ways a dataset file is opened.
var opens = map[string]func(string) (Source, error){
	"file":   func(p string) (Source, error) { return OpenFileSource(p) },
	"mapped": func(p string) (Source, error) { return OpenMappedSource(p) },
}

// readBack writes b to a file, opens it with open and reads every row.
func readBack(t *testing.T, b []byte, open func(string) (Source, error)) (*Matrix, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.frds")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := open(path)
	if err != nil {
		return nil, err
	}
	defer src.(io.Closer).Close()
	m := NewMatrix(src.NumRows(), src.Cols())
	if err := src.ReadRows(0, m.Rows, m.Data); err != nil {
		return nil, err
	}
	return m, nil
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := UniformMatrix(37, 11, 3, -100, 100)
	m.Set(0, 0, math.Inf(1))
	m.Set(1, 1, math.NaN())
	for name, open := range opens {
		got, err := readBack(t, frdsBytes(t, m, RowMajor), open)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(got) {
			t.Fatalf("%s: round trip mismatch", name)
		}
	}
}

// header builds a 32-byte FRDS header.
func header(version, layout uint32, rows, cols int64) []byte {
	b := append([]byte("FRDS"), make([]byte, 28)...)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint32(b[8:], layout)
	putInt64LE(b[16:], rows)
	putInt64LE(b[24:], cols)
	return b
}

func TestReadRejectsGarbage(t *testing.T) {
	// A version-1 file: 24-byte header without layout, then the payload.
	v1 := append([]byte("FRDS"), make([]byte, 20)...)
	v1[4] = 1
	putInt64LE(v1[8:], 2)
	putInt64LE(v1[16:], 1)
	v1 = append(v1, make([]byte, 16)...)
	wrongVersion := frdsBytes(t, NewMatrix(1, 1), RowMajor)
	wrongVersion[4] = 9
	headers := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOPE0000000000000000000000000000"),
		"truncated":        append([]byte("FRDS"), 2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0),
		"wrong version":    wrongVersion,
		"version 1":        v1,
		"unknown layout":   header(2, 7, 1, 1),
		"negative rows":    header(2, 0, -1, 1),
		"2^62 rows 0 cols": header(2, 0, 1<<62, 0),
		"2^41 cells":       header(2, 0, 1<<21, 1<<20),
	}
	for open, openFn := range opens {
		for name, b := range headers {
			if _, err := readBack(t, b, openFn); !errors.Is(err, ErrBadFormat) {
				t.Errorf("%s %s: err = %v, want ErrBadFormat", open, name, err)
			}
		}
		b := frdsBytes(t, UniformMatrix(4, 4, 1, 0, 1), RowMajor)
		if _, err := readBack(t, b[:len(b)-8], openFn); err == nil {
			t.Errorf("%s truncated payload: want error", open)
		}
	}
}

func TestFileRoundTripAndFileSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.frds")
	m := UniformMatrix(64, 5, 11, 0, 1)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.NumRows() != 64 || src.Cols() != 5 {
		t.Fatalf("source shape %dx%d", src.NumRows(), src.Cols())
	}
	// Concurrent disjoint reads must each see the right rows.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			begin, end := w*8, (w+1)*8
			dst := make([]float64, (end-begin)*5)
			if err := src.ReadRows(begin, end, dst); err != nil {
				errs[w] = err
				return
			}
			for i := range dst {
				if dst[i] != m.Data[begin*5+i] {
					errs[w] = fmt.Errorf("rows [%d,%d): value %d = %v, want %v", begin, end, i, dst[i], m.Data[begin*5+i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestFileSourceErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFileSource(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file: want error")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("garbage-not-a-dataset-at-all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileSource(bad); err == nil {
		t.Fatal("bad magic: want error")
	}
}

func TestMemorySource(t *testing.T) {
	m := UniformMatrix(10, 3, 5, 0, 1)
	src := NewMemorySource(m)
	if src.NumRows() != 10 || src.Cols() != 3 {
		t.Fatal("shape")
	}
	dst := make([]float64, 6)
	if err := src.ReadRows(4, 6, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != m.Data[12+i] {
			t.Fatal("wrong rows read")
		}
	}
	if err := src.ReadRows(-1, 2, dst); err == nil {
		t.Fatal("negative begin: want error")
	}
	if err := src.ReadRows(8, 11, dst); err == nil {
		t.Fatal("end beyond rows: want error")
	}
	if err := src.ReadRows(0, 5, make([]float64, 3)); err == nil {
		t.Fatal("short dst: want error")
	}
	// RowSlicer fast path aliases storage.
	rows := src.Rows(2, 4)
	if &rows[0] != &m.Data[6] {
		t.Fatal("Rows should alias the matrix")
	}
}

// Property: WriteLayout then OpenFileSource is the identity for arbitrary
// small matrices in both layouts.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, r, c uint8, colMajor bool) bool {
		rows, cols := int(r%20)+1, int(c%20)+1
		m := UniformMatrix(rows, cols, seed, -1e6, 1e6)
		layout := RowMajor
		if colMajor {
			layout = ColMajor
		}
		got, err := readBack(t, frdsBytes(t, m, layout), opens["file"])
		if err != nil {
			return false
		}
		return m.Equal(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

// Property: FileSource.ReadRows agrees with the in-memory matrix for
// arbitrary ranges.
func TestPropertyFileSourceRanges(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.frds")
	m := UniformMatrix(200, 7, 13, 0, 1)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	f := func(a, b uint8) bool {
		begin, end := int(a)%201, int(b)%201
		if begin > end {
			begin, end = end, begin
		}
		dst := make([]float64, (end-begin)*7)
		if err := src.ReadRows(begin, end, dst); err != nil {
			return false
		}
		for i := range dst {
			if dst[i] != m.Data[begin*7+i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}
