package main

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// ingest_fused scans a 1.0 GB point file (3.9 times the host's 260 MB
// last-level cache) through the zero-copy mapping and the fused block path.
// The file is written in set-up and read back from a warm page cache: the
// workload measures the mapped-split and block-flush path, not the disk.
//
// The file is 0.8 of the paper's 15 728 640 rows: the benchmark's driver runs
// with a file size limit of 1 GiB (RLIMIT_FSIZE), and the paper-scale file is
// 1.17 GiB.
const (
	ingestRows      = 12582912
	ingestDim       = 10
	ingestGroups    = 16
	ingestPasses    = 12
	ingestBlockRows = 8192 // rows per ReadRows call of the memcpy reference
)

// ingestSpec is the benchmark's own measurement kernel: a grouped count and
// sum over the first two columns, cheap enough that a pass is bound by
// getting rows to the kernel and flushing blocks, not by arithmetic.
func ingestSpec() freeride.Spec {
	return freeride.Spec{
		Object: freeride.ObjectSpec{Groups: ingestGroups, Elems: 2, Op: robj.OpAdd},
		BlockReduction: func(a *freeride.BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				g := int(row[0]) % ingestGroups
				a.Accumulate(g, 0, 1)
				a.Accumulate(g, 1, row[1])
			}
			return nil
		},
	}
}

type ingestFused struct {
	seed int64
	rows int
	dir  string
	path string
	want []float64 // per group: count, sum of column 1
}

func newIngestFused(seed int64, scale float64) workload {
	return &ingestFused{seed: seed, rows: scaled(ingestRows, scale, 4096)}
}

// fillSmallInts fills data with whole numbers in [0, 16) from a xorshift
// generator: cheap enough for 126 M values, and integer-valued so the group
// sums are exact under any accumulation order.
func fillSmallInts(data []float64, seed int64) {
	x := uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for i := range data {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data[i] = float64(x >> 60)
	}
}

func (w *ingestFused) setup() error {
	m := dataset.NewMatrix(w.rows, ingestDim)
	fillSmallInts(m.Data, w.seed)

	// The reference result: a plain loop over the generated matrix.
	w.want = make([]float64, ingestGroups*2)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		g := int(row[0]) % ingestGroups
		w.want[2*g]++
		w.want[2*g+1] += row[1]
	}

	dir, err := tempDir()
	if err != nil {
		return err
	}
	w.dir = dir
	w.path = filepath.Join(dir, "points.frds")
	// The matrix is dropped when setup returns; jobs see only the file.
	return dataset.WriteFile(w.path, m)
}

func (w *ingestFused) teardown() error {
	if w.dir == "" {
		return nil
	}
	err := os.RemoveAll(w.dir)
	w.dir = ""
	return err
}

func (w *ingestFused) job(_ bool, jt *jobTrace) (jobOut, error) {
	snaps := make([][]float64, 0, ingestPasses)
	t0 := time.Now()
	err := func() error {
		jt.push("dataset", "OpenMappedSource")
		src, err := dataset.OpenMappedSource(w.path)
		jt.pop()
		if err != nil {
			return err
		}
		defer src.Close()
		jt.push("freeride", "session")
		eng := freeride.New(freeride.Config{Threads: benchThreads})
		jt.pop()
		defer eng.Close()
		spec := ingestSpec()
		for p := 0; p < ingestPasses; p++ {
			jt.push("freeride", "RunContext")
			res, err := eng.RunContext(context.Background(), spec, src)
			jt.pop()
			if err != nil {
				return err
			}
			jt.push("freeride", "Release")
			snaps = append(snaps, append([]float64(nil), res.Object.Snapshot()...))
			err = eng.Release(res)
			jt.pop()
			if err != nil {
				return err
			}
		}
		jt.push("freeride", "Close")
		err = eng.Close()
		jt.pop()
		if err != nil {
			return err
		}
		jt.push("dataset", "Close")
		defer jt.pop()
		return src.Close()
	}()
	wall := time.Since(t0).Seconds()
	jt.pop()
	if err != nil {
		return jobOut{}, err
	}
	return jobOut{
		samples: []float64{wall},
		wall:    wall,
		rows:    int64(w.rows) * ingestPasses,
		classes: map[string]int64{"passes": ingestPasses},
		check: func() (int, int) {
			failed := 0
			for _, snap := range snaps {
				if !slices.Equal(snap, w.want) {
					failed++
				}
			}
			return ingestPasses, failed
		},
	}, nil
}

// reference is one single-thread copy of the whole mapping through ReadRows:
// the memcpy floor a pass is compared with.
func (w *ingestFused) reference() (float64, error) {
	src, err := dataset.OpenMappedSource(w.path)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	buf := make([]float64, ingestBlockRows*ingestDim)
	t0 := time.Now()
	if err := scanRows(src, buf); err != nil {
		return 0, err
	}
	return time.Since(t0).Seconds(), nil
}
