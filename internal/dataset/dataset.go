// Package dataset provides the synthetic workloads and data access layer for
// the reproduction: dense row-major matrices, deterministic generators for
// the paper's k-means and PCA inputs, a binary on-disk format, and row
// sources that the FREERIDE engine's splitter partitions into splits.
//
// The paper evaluates on a 12 MB and a 1.2 GB point dataset for k-means and
// on 1000×10,000 and 1000×100,000 matrices for PCA. Those datasets are not
// distributed, so this package regenerates equivalents from fixed seeds:
// Gaussian-mixture points for k-means (so clusters exist to find) and
// uniform matrices for PCA. The generators are deterministic given (shape,
// seed), which the tests rely on.
package dataset

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"unsafe"

	"chapelfreeride/internal/obs"
)

// Always-on I/O counters: how many rows and bytes each source kind moved
// into the engine. The zero-copy RowSlicer fast path counts rows and bytes
// served without a copy separately, so the split-handling cost model can
// distinguish copied from aliased data.
var (
	mRowsMem    = obs.Default.Counter("dataset_rows_read_total", "rows copied into worker buffers", obs.Label{Key: "source", Value: "memory"})
	mBytesMem   = obs.Default.Counter("dataset_bytes_read_total", "bytes copied into worker buffers", obs.Label{Key: "source", Value: "memory"})
	mRowsFile   = obs.Default.Counter("dataset_rows_read_total", "rows copied into worker buffers", obs.Label{Key: "source", Value: "file"})
	mBytesFile  = obs.Default.Counter("dataset_bytes_read_total", "bytes copied into worker buffers", obs.Label{Key: "source", Value: "file"})
	mRowsSliced = obs.Default.Counter("dataset_rows_sliced_total", "rows served zero-copy through the RowSlicer fast path")
)

// Matrix is a dense row-major float64 matrix. For point datasets each row is
// one data instance and each column one feature; this matches FREERIDE's
// "simple 2-D array view of the input dataset" (§IV-A of the paper).
type Matrix struct {
	Rows int
	Cols int
	Data []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("dataset: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// SizeBytes reports the payload size of the matrix in bytes.
func (m *Matrix) SizeBytes() int64 { return int64(len(m.Data)) * 8 }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equal reports whether two matrices have identical shape and bit-identical
// contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] && !(math.IsNaN(v) && math.IsNaN(o.Data[i])) {
			return false
		}
	}
	return true
}

// GaussianMixture generates n points of dimension dim drawn from k spherical
// Gaussian clusters with unit variance, plus the true cluster centers. The
// centers are placed uniformly in [-spread, spread]^dim. Deterministic for a
// fixed (n, dim, k, seed).
func GaussianMixture(n, dim, k int, seed int64) (points, centers *Matrix) {
	if k <= 0 {
		panic("dataset: GaussianMixture needs k > 0")
	}
	rng := rand.New(rand.NewSource(seed))
	const spread = 10.0
	centers = NewMatrix(k, dim)
	for i := range centers.Data {
		centers.Data[i] = (rng.Float64()*2 - 1) * spread
	}
	points = NewMatrix(n, dim)
	for r := 0; r < n; r++ {
		c := centers.Row(rng.Intn(k))
		row := points.Row(r)
		for j := 0; j < dim; j++ {
			row[j] = c[j] + rng.NormFloat64()
		}
	}
	return points, centers
}

// UniformMatrix generates a rows×cols matrix with entries uniform in
// [lo, hi). Deterministic for a fixed (rows, cols, seed, lo, hi).
func UniformMatrix(rows, cols int, seed int64, lo, hi float64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(rows, cols)
	span := hi - lo
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*span
	}
	return m
}

// KMeansPointsForBytes returns the row count that makes an n×dim float64
// point dataset occupy approximately targetBytes, as used to size the
// paper's "12 MB" and "1.2 GB" k-means inputs.
func KMeansPointsForBytes(targetBytes int64, dim int) int {
	if dim <= 0 {
		panic("dataset: dim must be positive")
	}
	n := targetBytes / int64(dim*8)
	if n < 1 {
		n = 1
	}
	return int(n)
}

// Binary on-disk format (FRDS, version 2):
//
//	magic "FRDS", version uint32 2, layout uint32 (0 row-major /
//	1 column-major), reserved uint32, rows int64, cols int64,
//	data rows*cols float64 little-endian in the declared layout
//
// The header is 32 bytes, a multiple of 8, so the float64 payload of an
// mmap'd file is 8-byte aligned and can be viewed in place as []float64
// (MappedSource relies on this).
var magic = [4]byte{'F', 'R', 'D', 'S'}

const formatVersion2 = 2

// headerSizeV2 is the header's size; the data payload starts right after.
const headerSizeV2 = 4 + 4 + 4 + 4 + 8 + 8

// maxCells bounds a header's rows, cols and rows*cols.
const maxCells = 1 << 40

// Layout declares how a file's float64 payload is ordered on disk.
type Layout uint32

const (
	// RowMajor stores instance after instance — the engine's split shape,
	// and the only layout the zero-copy RowSlicer fast path can alias.
	RowMajor Layout = 0
	// ColMajor stores feature column after feature column: reading one
	// feature across every instance is a single sequential scan. Row reads
	// gather, so this layout always goes through the boxed copy path.
	ColMajor Layout = 1
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case RowMajor:
		return "row-major"
	case ColMajor:
		return "col-major"
	default:
		return fmt.Sprintf("layout(%d)", uint32(l))
	}
}

// ErrBadFormat reports a malformed or truncated dataset file.
var ErrBadFormat = errors.New("dataset: bad file format")

// fileHeader is a parsed FRDS header.
type fileHeader struct {
	layout     Layout
	rows, cols int
	dataOff    int64 // byte offset of the float64 payload
}

// parseHeader reads and validates an FRDS header from r.
func parseHeader(r io.Reader) (fileHeader, error) {
	var h fileHeader
	var fixed [8]byte // magic + version
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if [4]byte(fixed[0:4]) != magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrBadFormat, fixed[0:4])
	}
	if version := binary.LittleEndian.Uint32(fixed[4:8]); version != formatVersion2 {
		return h, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, version)
	}
	var lay [8]byte // layout + reserved
	if _, err := io.ReadFull(r, lay[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	h.layout = Layout(binary.LittleEndian.Uint32(lay[0:4]))
	if h.layout != RowMajor && h.layout != ColMajor {
		return h, fmt.Errorf("%w: unknown layout %d", ErrBadFormat, uint32(h.layout))
	}
	h.dataOff = headerSizeV2
	var shape [16]byte
	if _, err := io.ReadFull(r, shape[:]); err != nil {
		return h, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	rows := int64(binary.LittleEndian.Uint64(shape[0:8]))
	cols := int64(binary.LittleEndian.Uint64(shape[8:16]))
	if rows < 0 || cols < 0 || rows > maxCells || cols > maxCells || (cols > 0 && rows > maxCells/cols) {
		return h, fmt.Errorf("%w: implausible shape %dx%d", ErrBadFormat, rows, cols)
	}
	h.rows, h.cols = int(rows), int(cols)
	return h, nil
}

// WriteLayout serializes the matrix to w in the binary format with the
// given payload layout.
func WriteLayout(w io.Writer, m *Matrix, layout Layout) error {
	if layout != RowMajor && layout != ColMajor {
		return fmt.Errorf("dataset: unknown layout %d", uint32(layout))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	var hdr [headerSizeV2]byte
	copy(hdr[0:4], magic[:])
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion2)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(layout))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(int64(m.Rows)))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(int64(m.Cols)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var buf [8]byte
	put := func(v float64) error {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		_, err := bw.Write(buf[:])
		return err
	}
	if layout == ColMajor {
		for j := 0; j < m.Cols; j++ {
			for i := 0; i < m.Rows; i++ {
				if err := put(m.Data[i*m.Cols+j]); err != nil {
					return err
				}
			}
		}
	} else {
		for _, v := range m.Data {
			if err := put(v); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile serializes the matrix to a file, row-major.
func WriteFile(path string, m *Matrix) error {
	return WriteFileLayout(path, m, RowMajor)
}

// WriteFileLayout serializes the matrix to a file in the given layout.
func WriteFileLayout(path string, m *Matrix, layout Layout) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteLayout(f, m, layout); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Source abstracts row access for the FREERIDE engine: "the data instances
// owned by a processor and belonging to the subset specified are read". A
// Source may be fully in memory or backed by a file on disk; the engine's
// splitter partitions [0, NumRows) and workers call ReadRows per split.
//
// ReadRows must be safe for concurrent use by multiple workers reading
// disjoint ranges.
type Source interface {
	// NumRows reports the total number of data instances.
	NumRows() int
	// Cols reports the number of features per instance.
	Cols() int
	// ReadRows copies rows [begin, end) into dst, which must have room for
	// (end-begin)*Cols() values.
	ReadRows(begin, end int, dst []float64) error
}

// MemorySource serves rows from an in-memory matrix.
type MemorySource struct{ M *Matrix }

// NewMemorySource wraps a matrix as a Source.
func NewMemorySource(m *Matrix) *MemorySource { return &MemorySource{M: m} }

// NumRows implements Source.
func (s *MemorySource) NumRows() int { return s.M.Rows }

// Cols implements Source.
func (s *MemorySource) Cols() int { return s.M.Cols }

// ReadRows implements Source.
func (s *MemorySource) ReadRows(begin, end int, dst []float64) error {
	if begin < 0 || end > s.M.Rows || begin > end {
		return fmt.Errorf("dataset: ReadRows range [%d,%d) out of [0,%d)", begin, end, s.M.Rows)
	}
	n := copy(dst, s.M.Data[begin*s.M.Cols:end*s.M.Cols])
	if n != (end-begin)*s.M.Cols {
		return fmt.Errorf("dataset: ReadRows short copy: dst too small")
	}
	mRowsMem.Add(int64(end - begin))
	mBytesMem.Add(int64(n) * 8)
	return nil
}

// Rows implements RowSlicer: it returns rows [begin, end) as a slice
// aliasing the in-memory storage, letting engines avoid the copy.
func (s *MemorySource) Rows(begin, end int) []float64 {
	mRowsSliced.Add(int64(end - begin))
	return s.M.Data[begin*s.M.Cols : end*s.M.Cols]
}

// RowSlicer is an optional Source fast path: sources whose rows are already
// contiguous in memory can expose them without copying.
type RowSlicer interface {
	Rows(begin, end int) []float64
}

// ContextSource is an optional Source extension for cancellation: sources
// that can abandon an in-flight read when the caller's context is cancelled
// implement it. The engine reads through ReadRowsContext, so layered sources
// (fault injection, retry) propagate cancellation all the way down to the
// slow operation — a sleeping backoff, an injected latency.
type ContextSource interface {
	Source
	// ReadRowsContext is ReadRows honoring ctx: it returns ctx.Err() (or an
	// error wrapping it) promptly once the context is cancelled.
	ReadRowsContext(ctx context.Context, begin, end int, dst []float64) error
}

// ReadRowsContext reads rows [begin, end) from src honoring ctx. Sources
// implementing ContextSource receive the context; for plain sources the
// context is checked once before the (uninterruptible) ReadRows call, which
// bounds the cancellation latency by one read.
func ReadRowsContext(ctx context.Context, src Source, begin, end int, dst []float64) error {
	if cs, ok := src.(ContextSource); ok {
		return cs.ReadRowsContext(ctx, begin, end, dst)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return src.ReadRows(begin, end, dst)
}

// FileSource serves rows from a dataset file using positional reads, which
// simulates FREERIDE reading data instances from disk. It is safe for
// concurrent ReadRows calls (each uses ReadAt). Both layouts are served; a
// column-major read gathers the requested rows with one positional read per
// column.
type FileSource struct {
	f      *os.File
	rows   int
	cols   int
	layout Layout
	off    int64 // payload byte offset
}

// OpenFileSource opens path (written by WriteFile/WriteFileLayout) as a
// Source.
func OpenFileSource(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileSource{f: f, rows: h.rows, cols: h.cols, layout: h.layout, off: h.dataOff}, nil
}

// NumRows implements Source.
func (s *FileSource) NumRows() int { return s.rows }

// Cols implements Source.
func (s *FileSource) Cols() int { return s.cols }

// Layout reports the on-disk payload layout.
func (s *FileSource) Layout() Layout { return s.layout }

// ReadRows implements Source with positional reads. A row-major payload is
// read into dst without an intermediate buffer; a column-major one goes
// through one column buffer per call. On error dst's contents are
// unspecified.
func (s *FileSource) ReadRows(begin, end int, dst []float64) error {
	if begin < 0 || end > s.rows || begin > end {
		return fmt.Errorf("dataset: ReadRows range [%d,%d) out of [0,%d)", begin, end, s.rows)
	}
	n := (end - begin) * s.cols
	if len(dst) < n {
		return fmt.Errorf("dataset: ReadRows dst len %d, need %d", len(dst), n)
	}
	if s.layout == ColMajor {
		// Gather: each column's [begin, end) segment is contiguous on disk.
		raw := make([]byte, (end-begin)*8)
		for j := 0; j < s.cols; j++ {
			off := s.off + (int64(j)*int64(s.rows)+int64(begin))*8
			if _, err := s.f.ReadAt(raw, off); err != nil {
				return err
			}
			for i := 0; i < end-begin; i++ {
				dst[i*s.cols+j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
		}
	} else if n > 0 {
		// Read the payload straight into dst's bytes, then decode in place:
		// each 8-byte slot is read before it is written, so this is correct
		// on either byte order and a no-op rewrite on little-endian hosts.
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&dst[0])), n*8)
		off := s.off + int64(begin)*int64(s.cols)*8
		if _, err := s.f.ReadAt(raw, off); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	mRowsFile.Add(int64(end - begin))
	mBytesFile.Add(int64(n) * 8)
	return nil
}

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }
