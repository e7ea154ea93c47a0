package dataset

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// readCSVText writes text to a file and reads every row back through
// CSVFileSource.
func readCSVText(t *testing.T, text string, skipHeader bool) (*Matrix, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCSVFileSource(path, skipHeader)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	m := NewMatrix(src.NumRows(), src.Cols())
	if err := src.ReadRows(0, m.Rows, m.Data); err != nil {
		return nil, err
	}
	return m, nil
}

func TestCSVRoundTrip(t *testing.T) {
	m := UniformMatrix(17, 4, 5, -100, 100)
	for _, header := range [][]string{{"a", "b", "c", "d"}, nil} {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, m, header); err != nil {
			t.Fatal(err)
		}
		got, err := readCSVText(t, buf.String(), header != nil)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Equal(got) {
			t.Fatalf("round trip mismatch (header %v)", header)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"header only": "a,b\n",
		"non-numeric": "1,2\n3,oops\n",
		"ragged":      "1,2\n3\n",
	}
	for name, src := range cases {
		skip := name == "header only"
		if _, err := readCSVText(t, src, skip); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Header length mismatch on write.
	var buf bytes.Buffer
	if err := WriteCSV(&buf, NewMatrix(1, 2), []string{"only-one"}); err == nil {
		t.Error("short header: want error")
	}
}

func TestCSVParsesPlainFile(t *testing.T) {
	src := "x,y,label\n1.5,2,0\n-3,4e2,1\n"
	m, err := readCSVText(t, src, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.Cols != 3 || m.At(1, 1) != 400 || m.At(0, 0) != 1.5 {
		t.Fatalf("parsed %v", m.Data)
	}
	// CRLF line endings and interior blank lines parse like encoding/csv.
	m, err = readCSVText(t, "1,2\r\n\r\n3,4\r\n", false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2 || m.At(1, 0) != 3 {
		t.Fatalf("crlf parse: %v", m.Data)
	}
}

func writeTestCSV(t *testing.T, m *Matrix, header []string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "d.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(f, m, header); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCSVFileSource(t *testing.T) {
	m := UniformMatrix(333, 5, 9, -50, 50)
	for _, header := range [][]string{nil, {"a", "b", "c", "d", "e"}} {
		path := writeTestCSV(t, m, header)
		src, err := OpenCSVFileSource(path, header != nil)
		if err != nil {
			t.Fatal(err)
		}
		if src.NumRows() != 333 || src.Cols() != 5 {
			t.Fatalf("shape %dx%d", src.NumRows(), src.Cols())
		}
		for _, r := range [][2]int{{0, 333}, {7, 100}, {332, 333}, {50, 50}} {
			dst := make([]float64, (r[1]-r[0])*5)
			if err := src.ReadRows(r[0], r[1], dst); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if dst[i] != m.Data[r[0]*5+i] {
					t.Fatalf("range %v mismatch at %d: %v vs %v", r, i, dst[i], m.Data[r[0]*5+i])
				}
			}
		}
		if err := src.ReadRows(-1, 2, make([]float64, 15)); err == nil {
			t.Fatal("negative begin: want error")
		}
		if err := src.ReadRows(0, 334, make([]float64, 334*5)); err == nil {
			t.Fatal("end beyond rows: want error")
		}
		if err := src.ReadRows(0, 2, make([]float64, 3)); err == nil {
			t.Fatal("short dst: want error")
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Ragged and empty files are rejected at open.
	dir := t.TempDir()
	ragged := filepath.Join(dir, "r.csv")
	if err := os.WriteFile(ragged, []byte("1,2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSVFileSource(ragged, false); err == nil {
		t.Fatal("ragged csv: want error at open")
	}
	empty := filepath.Join(dir, "e.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCSVFileSource(empty, false); err == nil {
		t.Fatal("empty csv: want error at open")
	}
}

func TestCSVFileSourceConcurrent(t *testing.T) {
	m := UniformMatrix(1024, 3, 13, 0, 1)
	src, err := OpenCSVFileSource(writeTestCSV(t, m, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]float64, 128*3)
			for lo := w * 11 % 896; lo < 896; lo += 64 {
				if err := src.ReadRows(lo, lo+128, dst); err != nil {
					errs[w] = err
					return
				}
				for i := range dst {
					if dst[i] != m.Data[lo*3+i] {
						errs[w] = fmt.Errorf("worker %d: mismatch at row %d", w, lo)
						return
					}
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

// Allocs-per-row guard: the pooled line buffer and field scratch must make
// steady-state CSV reads allocation-free per row. This pins the satellite
// fix — the old path allocated a string per field.
func TestCSVReadRowsAllocsPerRow(t *testing.T) {
	const rows, cols, chunk = 2048, 6, 256
	m := UniformMatrix(rows, cols, 17, -10, 10)
	src, err := OpenCSVFileSource(writeTestCSV(t, m, nil), false)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst := make([]float64, chunk*cols)
	// Warm the pool so the measured passes see steady state.
	if err := src.ReadRows(0, chunk, dst); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		for lo := 0; lo+chunk <= rows; lo += chunk {
			if err := src.ReadRows(lo, lo+chunk, dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	perRow := avg / rows
	if perRow > 0.01 {
		t.Fatalf("csv reads allocate %.4f objects/row (%.1f per full pass), want ~0", perRow, avg)
	}
}
