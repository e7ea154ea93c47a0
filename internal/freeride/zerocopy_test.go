package freeride

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// boxingSource strips every optional capability from a source: reads go
// through ReadRows copies only, so the engine takes the boxed path. The
// reference side of the zero-copy equivalence property.
type boxingSource struct{ src dataset.Source }

func (s boxingSource) NumRows() int { return s.src.NumRows() }
func (s boxingSource) Cols() int    { return s.src.Cols() }
func (s boxingSource) ReadRows(begin, end int, dst []float64) error {
	return s.src.ReadRows(begin, end, dst)
}

// guardSource is a RowSlicer memory source that detects mutation of its
// backing array: views handed to the engine alias guarded storage, and
// check() compares it word-for-word against a pristine copy after the run.
// Catches an engine or kernel writing through a borrowed row view — the
// runtime counterpart of frds-vet's rowalias analyzer.
type guardSource struct {
	data     []float64
	pristine []float64
	rows     int
	cols     int
}

func newGuardSource(m *dataset.Matrix) *guardSource {
	g := &guardSource{data: m.Data, rows: m.Rows, cols: m.Cols}
	g.pristine = append([]float64(nil), m.Data...)
	return g
}

func (g *guardSource) NumRows() int { return g.rows }
func (g *guardSource) Cols() int    { return g.cols }
func (g *guardSource) ReadRows(begin, end int, dst []float64) error {
	copy(dst, g.data[begin*g.cols:end*g.cols])
	return nil
}
func (g *guardSource) Rows(begin, end int) []float64 {
	return g.data[begin*g.cols : end*g.cols]
}
func (g *guardSource) check() error {
	for i := range g.data {
		if g.data[i] != g.pristine[i] {
			return fmt.Errorf("backing array mutated at word %d: %v -> %v", i, g.pristine[i], g.data[i])
		}
	}
	return nil
}

// intMatrix builds integer-valued data so float accumulation is exact and
// results are bit-identical under any accumulation order — which is what
// lets the property compare across schedulers and strategies directly.
func intMatrix(rows, cols int) *dataset.Matrix {
	m := dataset.NewMatrix(rows, cols)
	r := int64(29)
	for i := range m.Data {
		r = r*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(uint64(r) >> 40 % 64)
	}
	return m
}

// TestZeroCopyMatchesBoxed is the aliasing-safety property for RowSlicer
// ingestion, run by checkZeroCopyMatchesBoxed for the per-element kernel
// form: across schedulers × strategies × thread counts, a pass over a
// zero-copy source (mmap-backed file, and a mutation-detecting memory
// guard) is bit-identical to the same pass over the boxed copy path and over
// the parse-every-pass CSV file source, and the zero-copy backing array
// comes out untouched.
func TestZeroCopyMatchesBoxed(t *testing.T) {
	elem, _ := histSpecs(16)
	checkZeroCopyMatchesBoxed(t, elem)
}

// TestZeroCopyFusedMatchesBoxed runs the same property through the fused
// BlockReduction path, whose kernels consume the borrowed block view
// directly.
func TestZeroCopyFusedMatchesBoxed(t *testing.T) {
	_, fused := histSpecs(16)
	checkZeroCopyMatchesBoxed(t, fused)
}

func checkZeroCopyMatchesBoxed(t *testing.T, spec Spec) {
	t.Helper()
	const rows, cols = 20_000, 3
	m := intMatrix(rows, cols)
	dir := t.TempDir()
	path := filepath.Join(dir, "zc.frds")
	if err := dataset.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	mapped, err := dataset.OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	csvPath := filepath.Join(dir, "zc.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	err = dataset.WriteCSV(f, m, nil)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	csvSrc, err := dataset.OpenCSVFileSource(csvPath, false)
	if err != nil {
		t.Fatal(err)
	}
	defer csvSrc.Close()
	guard := newGuardSource(m)
	for _, threads := range []int{1, 3} {
		for _, pol := range sched.Policies() {
			for _, strat := range robj.Strategies() {
				name := fmt.Sprintf("t%d/%v/%v", threads, pol, strat)
				eng := New(Config{Threads: threads, SplitRows: 512, Scheduler: pol, Strategy: strat})
				runSnapshot := func(src dataset.Source) []float64 {
					res, err := eng.RunContext(context.Background(), spec, src)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// Copy out: Release hands the object, and the slice
					// Snapshot returns, back to the pool the next pass reuses.
					snap := append([]float64(nil), res.Object.Snapshot()...)
					if err := eng.Release(res); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return snap
				}
				boxed := runSnapshot(boxingSource{guard})
				zcMapped := runSnapshot(mapped)
				zcGuard := runSnapshot(guard)
				parsed := runSnapshot(csvSrc)
				for i := range boxed {
					if boxed[i] != zcMapped[i] {
						t.Fatalf("%s: mapped zero-copy cell %d = %v, boxed %v", name, i, zcMapped[i], boxed[i])
					}
					if boxed[i] != zcGuard[i] {
						t.Fatalf("%s: guard zero-copy cell %d = %v, boxed %v", name, i, zcGuard[i], boxed[i])
					}
					if boxed[i] != parsed[i] {
						t.Fatalf("%s: csv cell %d = %v, boxed %v", name, i, parsed[i], boxed[i])
					}
				}
				if err := eng.Close(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
	if err := guard.check(); err != nil {
		t.Fatalf("zero-copy pass mutated the source: %v", err)
	}
}
