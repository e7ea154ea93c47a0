package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
	"unsafe"
)

// bstr views b as a string without copying, for strconv calls. Safe because
// ParseFloat does not retain its argument and b is not mutated during the
// call.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// parseFloatRow splits one numeric CSV line (no quoting) on commas and
// parses each field into dst, which must hold at least the line's field
// count. It allocates nothing: fields are sub-slices of line viewed as
// strings only for the duration of each ParseFloat. Returns the number of
// fields parsed.
func parseFloatRow(line []byte, dst []float64) (int, error) {
	n := 0
	for len(line) > 0 || n == 0 {
		field := line
		if i := bytes.IndexByte(line, ','); i >= 0 {
			field, line = line[:i], line[i+1:]
		} else {
			line = nil
		}
		if n >= len(dst) {
			return n, fmt.Errorf("field %d overflows row of %d", n+1, len(dst))
		}
		v, err := strconv.ParseFloat(bstr(field), 64)
		if err != nil {
			return n, fmt.Errorf("field %d: %w", n+1, err)
		}
		dst[n] = v
		n++
		if line == nil {
			break
		}
	}
	return n, nil
}

// countFields returns the comma-separated field count of a line.
func countFields(line []byte) int {
	return bytes.Count(line, []byte{','}) + 1
}

// scanLF splits on \n alone and keeps a \r before it, so a line's length
// plus one is its byte span in the file (bufio.ScanLines drops the \r, and
// the row offsets of a CRLF file would drift by a byte a line).
func scanLF(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// trimEOL strips a trailing \r (Windows line endings) from a line already
// split on \n.
func trimEOL(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// WriteCSV serializes the matrix as numeric CSV, optionally with a header
// of the given column names (must match the column count when non-nil).
func WriteCSV(w io.Writer, m *Matrix, header []string) error {
	cw := csv.NewWriter(w)
	if header != nil {
		if len(header) != m.Cols {
			return fmt.Errorf("dataset: header has %d names for %d columns", len(header), m.Cols)
		}
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	rec := make([]string, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVFileSource serves a numeric CSV file as a dataset.Source: the file is
// indexed once at open (a byte offset per data row), and ReadRows reads
// just the requested line span and parses it with pooled scratch — the
// line buffer and field scratch are reused across ReadRows calls, so a
// steady-state scan allocates nothing per row. This is the "boxed, parse
// every time" baseline the binary format exists to beat; the benchmark's
// dataset.csv_mrows_per_s metric measures that gap.
type CSVFileSource struct {
	f    *os.File
	cols int
	// offsets[i] is row i's first byte; offsets[rows] is the data end, so
	// row i's line (with EOL) is offsets[i]..offsets[i+1].
	offsets []int64
	pool    sync.Pool // *csvScratch
}

type csvScratch struct {
	span []byte
	row  []float64
}

// OpenCSVFileSource indexes path for random row access. When skipHeader is
// set the first line is excluded from the row index. The index pass also
// validates rectangularity, so ReadRows can't fail on shape later.
func OpenCSVFileSource(path string, skipHeader bool) (*CSVFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s := &CSVFileSource{f: f}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	sc.Split(scanLF)
	var off int64
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		// Scanner strips the \n; the next line starts after it. A final
		// unterminated line just ends at EOF.
		next := off + int64(len(raw)) + 1
		rec := trimEOL(raw)
		if (skipHeader && line == 1) || len(rec) == 0 {
			off = next
			continue
		}
		if s.cols == 0 {
			s.cols = countFields(rec)
		} else if n := countFields(rec); n != s.cols {
			f.Close()
			return nil, fmt.Errorf("dataset: csv line %d has %d fields, want %d", line, n, s.cols)
		}
		s.offsets = append(s.offsets, off)
		off = next
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: indexing csv: %w", err)
	}
	if len(s.offsets) == 0 {
		f.Close()
		return nil, fmt.Errorf("dataset: csv contained no data rows")
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	s.offsets = append(s.offsets, st.Size())
	return s, nil
}

// NumRows implements Source.
func (s *CSVFileSource) NumRows() int { return len(s.offsets) - 1 }

// Cols implements Source.
func (s *CSVFileSource) Cols() int { return s.cols }

// Close releases the file handle.
func (s *CSVFileSource) Close() error { return s.f.Close() }

// ReadRows implements Source: one positional read covering the row span,
// then an in-place parse with scratch reused across calls (and shared
// safely across concurrent readers through the pool).
func (s *CSVFileSource) ReadRows(begin, end int, dst []float64) error {
	rows := s.NumRows()
	if begin < 0 || end > rows || begin > end {
		return fmt.Errorf("dataset: ReadRows range [%d,%d) out of [0,%d)", begin, end, rows)
	}
	if need := (end - begin) * s.cols; len(dst) < need {
		return fmt.Errorf("dataset: ReadRows dst len %d, need %d", len(dst), need)
	}
	if begin == end {
		return nil
	}
	sc, _ := s.pool.Get().(*csvScratch)
	if sc == nil {
		sc = &csvScratch{row: make([]float64, s.cols)}
	}
	defer s.pool.Put(sc)
	span := s.offsets[end] - s.offsets[begin]
	if int64(cap(sc.span)) < span {
		sc.span = make([]byte, span)
	}
	buf := sc.span[:span]
	if _, err := s.f.ReadAt(buf, s.offsets[begin]); err != nil && err != io.EOF {
		return err
	}
	for r := begin; r < end; r++ {
		lo := s.offsets[r] - s.offsets[begin]
		hi := s.offsets[r+1] - s.offsets[begin]
		rec := buf[lo:hi]
		// Cut at the EOL the index left on every line but possibly the
		// last; the span also holds the blank lines the index skipped.
		if i := bytes.IndexByte(rec, '\n'); i >= 0 {
			rec = rec[:i]
		}
		rec = trimEOL(rec)
		n, err := parseFloatRow(rec, sc.row)
		if err != nil {
			return fmt.Errorf("dataset: csv row %d: %w", r, err)
		}
		if n != s.cols {
			return fmt.Errorf("dataset: csv row %d has %d fields, want %d", r, n, s.cols)
		}
		copy(dst[(r-begin)*s.cols:], sc.row[:n])
	}
	mRowsFile.Add(int64(end - begin))
	mBytesFile.Add(span)
	return nil
}
