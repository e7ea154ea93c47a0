package dataset

import (
	"context"
	"errors"
	"testing"
)

// plainSource strips a MemorySource down to the bare Source interface so the
// Reader's copy path (no RowSlicer, no ContextSource) is exercised.
type plainSource struct{ m *MemorySource }

func (p plainSource) NumRows() int { return p.m.NumRows() }
func (p plainSource) Cols() int    { return p.m.Cols() }
func (p plainSource) ReadRows(begin, end int, dst []float64) error {
	return p.m.ReadRows(begin, end, dst)
}

// ctxSource records the context it was handed, to prove the Reader forwards
// it to ContextSource implementations.
type ctxSource struct {
	plainSource
	got context.Context
}

func (c *ctxSource) ReadRowsContext(ctx context.Context, begin, end int, dst []float64) error {
	c.got = ctx
	return c.plainSource.ReadRows(begin, end, dst)
}

func testMatrix() *Matrix {
	m := NewMatrix(10, 3)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	return m
}

// TestReaderZeroCopy: a RowSlicer source is served without copying — the
// returned slice aliases the matrix storage and the scratch buffer is never
// touched.
func TestReaderZeroCopy(t *testing.T) {
	m := testMatrix()
	r := NewReader(NewMemorySource(m))
	if r.slicer == nil {
		t.Fatal("MemorySource not detected as RowSlicer")
	}
	var buf []float64
	got, err := r.Read(context.Background(), 2, 5, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 9 {
		t.Fatalf("len = %d, want 9", len(got))
	}
	if &got[0] != &m.Data[2*3] {
		t.Fatal("zero-copy read did not alias the matrix storage")
	}
	if buf != nil {
		t.Fatal("zero-copy read allocated the scratch buffer")
	}
}

// TestReaderCopyPathGrowsBuf: a plain source is copied into the caller's
// buffer, which is grown once and then reused across reads.
func TestReaderCopyPathGrowsBuf(t *testing.T) {
	m := testMatrix()
	r := NewReader(plainSource{NewMemorySource(m)})
	if r.slicer != nil {
		t.Fatal("plain source misdetected as RowSlicer")
	}
	var buf []float64
	got, err := r.Read(context.Background(), 1, 4, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if got[i] != float64(3+i) {
			t.Fatalf("cell %d = %v, want %v", i, got[i], float64(3+i))
		}
	}
	if cap(buf) < 9 {
		t.Fatal("buf not grown for caller reuse")
	}
	first := &buf[0]
	got2, err := r.Read(context.Background(), 0, 2, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0] != first {
		t.Fatal("smaller read reallocated instead of reusing buf")
	}
}

// TestReaderPlainSourceHonorsCancel: for sources without a context path the
// Reader checks ctx before the read, so a cancelled pass never issues I/O.
func TestReaderPlainSourceHonorsCancel(t *testing.T) {
	r := NewReader(plainSource{NewMemorySource(testMatrix())})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf []float64
	if _, err := r.Read(ctx, 0, 2, &buf); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if err := r.ReadInto(ctx, 0, 2, make([]float64, 6)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadInto err = %v, want context.Canceled", err)
	}
}

// TestReaderForwardsContext: ContextSource implementations receive the
// caller's context verbatim.
func TestReaderForwardsContext(t *testing.T) {
	src := &ctxSource{plainSource: plainSource{NewMemorySource(testMatrix())}}
	r := NewReader(src)
	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "mark")
	if err := r.ReadInto(ctx, 0, 1, make([]float64, 3)); err != nil {
		t.Fatal(err)
	}
	if src.got == nil || src.got.Value(key{}) != "mark" {
		t.Fatal("Reader did not forward the caller's context to ReadRowsContext")
	}
}
