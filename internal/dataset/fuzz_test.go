package dataset

import (
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpenFRDS feeds arbitrary bytes to both FRDS openers. Neither may
// panic, and a refusal wraps ErrBadFormat or is a file-system error. When
// the mapped open accepts a file, the positional open accepts it too, with
// the same shape, and every row reads bit-identically both ways and equal
// to the payload's own bytes. A header promising more payload than the file
// holds is refused by the mapped open and makes a positional read of the
// last row fail. No buffer, mapping included, is larger than the file.
//
//	go test -run='^$' -fuzz=FuzzOpenFRDS -fuzztime=10s ./internal/dataset/
func FuzzOpenFRDS(f *testing.F) {
	m := UniformMatrix(5, 3, 7, -1, 1)
	for _, layout := range []Layout{RowMajor, ColMajor} {
		path := filepath.Join(f.TempDir(), "seed.frds")
		if err := WriteFileLayout(path, m, layout); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-1]) // payload one byte short
	}
	v1 := append([]byte("FRDS"), make([]byte, 20)...)
	v1[4] = 1
	putInt64LE(v1[8:], 2)
	putInt64LE(v1[16:], 1)
	f.Add(append(v1, make([]byte, 16)...))
	f.Add(append(header(2, 7, 1, 1), make([]byte, 8)...)) // bad layout
	f.Add(header(2, 0, 1<<21, 1<<20))                     // 2^41 cells
	f.Add(header(2, 0, 1<<20, 0))                         // rows, no payload

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.frds")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		fsrc, ferr := OpenFileSource(path)
		if ferr != nil {
			refusal(t, "positional", ferr)
		} else {
			defer fsrc.Close()
		}
		msrc, merr := OpenMappedSource(path)
		if merr != nil {
			refusal(t, "mapped", merr)
		} else {
			defer msrc.Close()
		}
		if ferr != nil {
			if merr == nil {
				t.Fatalf("mapped open accepted what the positional open refused: %v", ferr)
			}
			return
		}
		rows, cols := fsrc.NumRows(), fsrc.Cols()
		size := int64(len(data))
		if int64(rows)*int64(cols)*8 > size-headerSizeV2 {
			if merr == nil {
				t.Fatalf("mapped open accepted a %dx%d header over a %d-byte file", rows, cols, size)
			}
			// A one-row buffer larger than the file is never allocated;
			// such a header is refused by the mapped open alone.
			if rows > 0 && int64(cols)*8 <= size {
				if err := fsrc.ReadRows(rows-1, rows, make([]float64, cols)); err == nil {
					t.Fatalf("positional read of row %d of a %dx%d header over a %d-byte file succeeded", rows-1, rows, cols, size)
				}
			}
			return
		}
		if merr != nil {
			t.Fatalf("mapped open refused a file the positional open accepted: %v", merr)
		}
		if msrc.NumRows() != rows || msrc.Cols() != cols || msrc.Layout() != fsrc.Layout() {
			t.Fatalf("shape %dx%d/%s mapped, %dx%d/%s positional",
				msrc.NumRows(), msrc.Cols(), msrc.Layout(), rows, cols, fsrc.Layout())
		}
		if msrc.MappedBytes() > size {
			t.Fatalf("mapping of %d bytes over a %d-byte file", msrc.MappedBytes(), size)
		}
		// Read every row in chunks whose buffers fit in the file.
		chunk := rows
		if cols > 0 {
			chunk = max(1, int(size)/(8*cols))
		}
		payload := data[headerSizeV2:]
		for begin := 0; begin < rows; begin += chunk {
			end := min(rows, begin+chunk)
			pos := make([]float64, (end-begin)*cols)
			mapped := make([]float64, len(pos))
			if err := fsrc.ReadRows(begin, end, pos); err != nil {
				t.Fatalf("positional rows [%d,%d): %v", begin, end, err)
			}
			if err := msrc.ReadRows(begin, end, mapped); err != nil {
				t.Fatalf("mapped rows [%d,%d): %v", begin, end, err)
			}
			for i := range pos {
				r, c := begin+i/cols, i%cols
				cell := r*cols + c
				if fsrc.Layout() == ColMajor {
					cell = c*rows + r
				}
				want := binary.LittleEndian.Uint64(payload[cell*8:])
				if math.Float64bits(pos[i]) != want || math.Float64bits(mapped[i]) != want {
					t.Fatalf("row %d col %d: positional %#x, mapped %#x, payload %#x",
						r, c, math.Float64bits(pos[i]), math.Float64bits(mapped[i]), want)
				}
			}
		}
	})
}

// refusal fails the fuzz case unless err wraps ErrBadFormat or is a
// file-system error.
func refusal(t *testing.T, open string, err error) {
	t.Helper()
	var pathErr *fs.PathError
	if !errors.Is(err, ErrBadFormat) && !errors.As(err, &pathErr) {
		t.Fatalf("%s open refused with %T %v, want ErrBadFormat or an I/O error", open, err, err)
	}
}
