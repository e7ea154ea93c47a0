package dataset

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestWriteLayoutRoundTrip(t *testing.T) {
	m := UniformMatrix(53, 7, 13, -5, 5)
	for _, layout := range []Layout{RowMajor, ColMajor} {
		for name, open := range opens {
			got, err := readBack(t, frdsBytes(t, m, layout), open)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Equal(got) {
				t.Fatalf("%v %s: round trip mismatch", layout, name)
			}
		}
	}
}

func TestFileSourceColMajor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cm.frds")
	m := UniformMatrix(40, 6, 7, -1, 1)
	if err := WriteFileLayout(path, m, ColMajor); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Layout() != ColMajor {
		t.Fatalf("layout = %v", fs.Layout())
	}
	// Ranged reads must return row-major data regardless of disk layout.
	for _, r := range [][2]int{{0, 40}, {3, 17}, {39, 40}, {10, 10}} {
		dst := make([]float64, (r[1]-r[0])*6)
		if err := fs.ReadRows(r[0], r[1], dst); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if dst[i] != m.Data[r[0]*6+i] {
				t.Fatalf("range %v mismatch at %d", r, i)
			}
		}
	}
}

func TestMappedSourceRowMajor(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rm.frds")
	m := UniformMatrix(128, 4, 21, 0, 1)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if ms.NumRows() != 128 || ms.Cols() != 4 {
		t.Fatalf("shape %dx%d", ms.NumRows(), ms.Cols())
	}
	if ms.Layout() != RowMajor {
		t.Fatalf("layout = %v", ms.Layout())
	}
	// Boxed reads match.
	dst := make([]float64, 128*4)
	if err := ms.ReadRows(0, 128, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != m.Data[i] {
			t.Fatalf("boxed mismatch at %d", i)
		}
	}
	if !ms.Mapped() {
		t.Skip("mmap unavailable on this platform/filesystem; fallback verified above")
	}
	if ms.MappedBytes() <= 0 {
		t.Fatal("mapped source reports no mapped bytes")
	}
	// Mapped row-major files must expose the zero-copy fast path, and the
	// views must alias one underlying array (sub-slices of the mapping).
	sl, ok := Source(ms).(RowSlicer)
	if !ok {
		t.Fatal("mapped row-major file must implement RowSlicer")
	}
	rows := sl.Rows(16, 32)
	for i := range rows {
		if rows[i] != m.Data[16*4+i] {
			t.Fatalf("sliced mismatch at %d", i)
		}
	}
	whole := sl.Rows(0, 128)
	if &whole[16*4] != &rows[0] {
		t.Fatal("Rows views must alias the same mapping")
	}
}

func TestMappedSourceColMajorNoSlicer(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cm.frds")
	m := UniformMatrix(64, 3, 5, -2, 2)
	if err := WriteFileLayout(path, m, ColMajor); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	// Column-major payloads need a gather, so the source must NOT claim the
	// zero-copy capability (a false claim would hand the engine transposed
	// data — the PR 2 class of bug).
	if _, ok := Source(ms).(RowSlicer); ok {
		t.Fatal("column-major mapped file must not implement RowSlicer")
	}
	dst := make([]float64, 64*3)
	if err := ms.ReadRows(0, 64, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != m.Data[i] {
			t.Fatalf("gather mismatch at %d", i)
		}
	}
}

func TestMappedSourceCloseIdempotentAndTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.frds")
	m := UniformMatrix(32, 2, 9, 0, 1)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ms.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}

	// A file whose header promises more payload than the file holds must be
	// rejected at open — mapping it would fault on first touch instead.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.frds")
	if err := os.WriteFile(trunc, b[:len(b)-16], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMappedSource(trunc); err == nil {
		t.Fatal("truncated payload: want error")
	}
}

func TestMappedSourceEmptyPayload(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "empty.frds")
	if err := WriteFile(path, NewMatrix(0, 4)); err != nil {
		t.Fatal(err)
	}
	ms, err := OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	if ms.Mapped() {
		t.Fatal("empty payload must not map")
	}
	if ms.NumRows() != 0 || ms.Cols() != 4 {
		t.Fatalf("shape %dx%d", ms.NumRows(), ms.Cols())
	}
	if err := ms.ReadRows(0, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for both layouts, mapped reads, positional reads, and the
// original matrix agree on arbitrary ranges.
func TestPropertyMappedEquivalence(t *testing.T) {
	dir := t.TempDir()
	m := UniformMatrix(211, 3, 17, -3, 3)
	paths := map[Layout]string{}
	for layout, name := range map[Layout]string{RowMajor: "rm.frds", ColMajor: "cm.frds"} {
		p := filepath.Join(dir, name)
		if err := WriteFileLayout(p, m, layout); err != nil {
			t.Fatal(err)
		}
		paths[layout] = p
	}
	for layout, p := range paths {
		ms, err := OpenMappedSource(p)
		if err != nil {
			t.Fatal(err)
		}
		defer ms.Close()
		fs, err := OpenFileSource(p)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		f := func(a, b uint8) bool {
			lo, hi := int(a)%212, int(b)%212
			if lo > hi {
				lo, hi = hi, lo
			}
			d1 := make([]float64, (hi-lo)*3)
			d2 := make([]float64, (hi-lo)*3)
			if err := ms.ReadRows(lo, hi, d1); err != nil {
				return false
			}
			if err := fs.ReadRows(lo, hi, d2); err != nil {
				return false
			}
			for i := range d1 {
				if d1[i] != d2[i] || d1[i] != m.Data[lo*3+i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(int64(layout) + 5))}); err != nil {
			t.Fatalf("layout %v: %v", layout, err)
		}
	}
}

func putInt64LE(b []byte, v int64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// TestFileSourceReadRowsInPlace pins ReadRows' buffers: a row-major read
// decodes straight into dst with no allocation and round-trips WriteFile bit
// for bit (NaN payloads, signed zero, subnormals, infinities); a
// column-major read round-trips too and allocates one column buffer per call.
func TestFileSourceReadRowsInPlace(t *testing.T) {
	m := UniformMatrix(48, 5, 3, -1, 1)
	for i, b := range []uint64{0x7ff8000000000001, 0x8000000000000000, 1, 0x7ff0000000000000, 0xfff0000000000000} {
		m.Data[7*i+2] = math.Float64frombits(b)
	}
	for _, c := range []struct {
		layout    Layout
		maxAllocs float64
	}{{RowMajor, 0}, {ColMajor, 1}} {
		path := filepath.Join(t.TempDir(), "rt.frds")
		if err := WriteFileLayout(path, m, c.layout); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		dst := make([]float64, len(m.Data))
		if err := fs.ReadRows(0, m.Rows, dst); err != nil {
			t.Fatal(err)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(m.Data[i]) {
				t.Fatalf("%v: cell %d reads %#x, wrote %#x", c.layout, i, math.Float64bits(dst[i]), math.Float64bits(m.Data[i]))
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := fs.ReadRows(3, 40, dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.maxAllocs {
			t.Errorf("%v: ReadRows allocates %v times per call, want at most %v", c.layout, allocs, c.maxAllocs)
		}
	}
}
