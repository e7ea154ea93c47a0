package bench

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// ingestDim mirrors the paper's 10-feature k-means input; scale 1 is the
// 1.2 GB dataset (15,728,640 rows × 10 float64 columns).
const (
	ingestDim      = 10
	ingestFullRows = 15728640
	// ingestBlockRows sizes the prefetch blocks for the boxed binary path:
	// 8192 rows × 10 cols × 8 B = 640 KB per block, large enough to
	// amortize the read syscall, small enough that a handful of in-flight
	// blocks stay cache-resident.
	ingestBlockRows = 8192
	ingestGroups    = 16
)

// ingestSpec is the measurement kernel: a grouped count+sum histogram over
// the first two columns, cheap enough that the pass time is dominated by
// ingestion (parse, copy, or page-fault) rather than arithmetic. Inputs are
// uniform in [0, 16), so the group index needs no clamping.
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

// ensureIngestFiles materializes the binary (row-major v2) and CSV forms of
// the synthetic dataset under dir, reusing files from a previous run when
// their header already matches — at paper scale the CSV alone is ~3 GB, so
// regeneration is worth skipping.
func ensureIngestFiles(dir string, rows int, seed int64) (binPath, csvPath string, err error) {
	base := fmt.Sprintf("ingest-%dx%d-s%d", rows, ingestDim, seed)
	binPath = filepath.Join(dir, base+".frds")
	csvPath = filepath.Join(dir, base+".csv")

	haveBin := false
	if fs, err := dataset.OpenFileSource(binPath); err == nil {
		haveBin = fs.NumRows() == rows && fs.Cols() == ingestDim
		fs.Close()
	}
	haveCSV := false
	if st, err := os.Stat(csvPath); err == nil && st.Size() > 0 {
		haveCSV = true
	}
	if haveBin && haveCSV {
		return binPath, csvPath, nil
	}

	m := dataset.UniformMatrix(rows, ingestDim, seed, 0, ingestGroups)
	if !haveBin {
		if err := dataset.WriteFile(binPath, m); err != nil {
			return "", "", fmt.Errorf("abl-ingest: write binary: %w", err)
		}
	}
	if !haveCSV {
		f, err := os.Create(csvPath)
		if err != nil {
			return "", "", fmt.Errorf("abl-ingest: write csv: %w", err)
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		werr := dataset.WriteCSV(bw, m, nil)
		if werr == nil {
			werr = bw.Flush()
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", "", fmt.Errorf("abl-ingest: write csv: %w", werr)
		}
	}
	return binPath, csvPath, nil
}

// ablIngest measures the zero-copy ingestion tentpole: the same reduction
// pass over the same data through three ingestion paths —
//
//	csv-boxed     parse-every-pass text baseline (CSVFileSource)
//	bin-boxed     binary reads copied through a read-ahead pipeline whose
//	              depth the obs-counter calibration pass chooses
//	bin-zerocopy  mmap-backed source whose splits alias the page cache
//
// — on both the single-engine and the simulated-cluster (RunFileContext,
// each node mapping its shard) paths, against a measured memcpy baseline:
// the cost of just copying the payload once, which bounds what any copying
// ingestion path can reach. Throughput is rows/sec; the speedup column is vs the
// csv-boxed row at the same thread count.
func ablIngest(p Params) (*Table, error) {
	rows := maxInt(4096, int(float64(ingestFullRows)*p.Scale))

	dir := p.IngestDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "abl-ingest-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	binPath, csvPath, err := ensureIngestFiles(dir, rows, p.Seed)
	if err != nil {
		return nil, err
	}

	// Calibrate the read-ahead depth from the obs hit/miss counters once;
	// every bin-boxed measurement then runs at the chosen depth.
	calSrc, err := dataset.OpenFileSource(binPath)
	if err != nil {
		return nil, err
	}
	cal, err := dataset.CalibratePrefetch(context.Background(), calSrc, ingestBlockRows, 0, 0)
	calSrc.Close()
	if err != nil {
		return nil, fmt.Errorf("abl-ingest: calibrate: %w", err)
	}

	spec := ingestSpec()
	tbl := &Table{
		ID: "abl-ingest",
		Title: fmt.Sprintf("zero-copy columnar ingestion — %d×%d (%.1f MB binary), read-ahead depth %d (calibrated)",
			rows, ingestDim, float64(rows*ingestDim*8)/(1<<20), cal.Depth),
		Columns: []string{"path", "mode", "threads", "total(s)", "Mrows/s", "vs csv"},
	}

	// memcpy baseline: stream the mapped payload into one reusable buffer.
	// No parse, no engine — the copy cost every boxed path pays at minimum.
	mapped, err := dataset.OpenMappedSource(binPath)
	if err != nil {
		return nil, err
	}
	defer mapped.Close()
	var memcpyTotal time.Duration
	{
		buf := make([]float64, ingestBlockRows*ingestDim)
		// Untimed warm-up scan: fault the whole payload in first, so the
		// baseline (which runs before everything else) measures the copy,
		// not the one-time cold page-in every subsequent mode would then
		// inherit for free.
		for lo := 0; lo < rows; lo += ingestBlockRows {
			hi := minInt(lo+ingestBlockRows, rows)
			if err := mapped.ReadRows(lo, hi, buf[:(hi-lo)*ingestDim]); err != nil {
				return nil, err
			}
		}
		best := time.Duration(0)
		for rep := 0; rep < p.Reps; rep++ {
			t0 := time.Now()
			for lo := 0; lo < rows; lo += ingestBlockRows {
				hi := minInt(lo+ingestBlockRows, rows)
				if err := mapped.ReadRows(lo, hi, buf[:(hi-lo)*ingestDim]); err != nil {
					return nil, err
				}
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		memcpyTotal = best
		tbl.Rows = append(tbl.Rows, []string{
			"baseline", "memcpy", "1", secs(memcpyTotal), mrows(rows, memcpyTotal), "",
		})
		tbl.Metrics = append(tbl.Metrics, Metric{
			Workload: "baseline", Version: "memcpy", Threads: 1,
			NsPerOp:    nsPerRow(memcpyTotal, rows),
			RowsPerSec: rowsPerSec(rows, memcpyTotal),
		})
	}

	// openMode returns a fresh source for one measurement plus its cleanup;
	// the mapped source is session-long (page cache keeps reopens cheap,
	// but one mapping is the realistic serving shape).
	openMode := func(mode string) (dataset.Source, func(), error) {
		switch mode {
		case "csv-boxed":
			s, err := dataset.OpenCSVFileSource(csvPath, false)
			if err != nil {
				return nil, nil, err
			}
			return s, func() { s.Close() }, nil
		case "bin-boxed":
			fs, err := dataset.OpenFileSource(binPath)
			if err != nil {
				return nil, nil, err
			}
			pf := dataset.NewPrefetchSourceDepth(fs, ingestBlockRows, cal.Depth+2, cal.Depth)
			return pf, func() { fs.Close() }, nil
		case "bin-zerocopy":
			return mapped, func() {}, nil
		}
		return nil, nil, fmt.Errorf("abl-ingest: unknown mode %q", mode)
	}
	modes := []string{"csv-boxed", "bin-boxed", "bin-zerocopy"}

	// runEngine times one fastest-of-reps engine pass and returns the group
	// counts (exact integers, identical across modes by construction).
	runEngine := func(threads int, mode string) (time.Duration, []float64, error) {
		src, cleanup, err := openMode(mode)
		if err != nil {
			return 0, nil, err
		}
		defer cleanup()
		eng := freeride.New(freeride.Config{
			Threads: threads, SplitRows: splitRowsFor(rows, threads),
		})
		defer eng.Close()
		var best time.Duration
		var counts []float64
		for rep := 0; rep < p.Reps; rep++ {
			t0 := time.Now()
			res, err := eng.RunContext(context.Background(), spec, src)
			if err != nil {
				return 0, nil, fmt.Errorf("abl-ingest engine %s threads=%d: %w", mode, threads, err)
			}
			d := time.Since(t0)
			snap := res.Object.Snapshot()
			if rerr := eng.Release(res); rerr != nil {
				return 0, nil, rerr
			}
			if best == 0 || d < best {
				best = d
				counts = groupCounts(snap)
			}
		}
		return best, counts, nil
	}

	runCluster := func(threads int, mode string) (time.Duration, []float64, error) {
		c := cluster.New(cluster.Config{
			Nodes: 2,
			PerNode: freeride.Config{
				Threads: threads, SplitRows: splitRowsFor(rows/2, threads),
			},
		})
		defer c.Close()
		var best time.Duration
		var counts []float64
		for rep := 0; rep < p.Reps; rep++ {
			var res *cluster.Result
			var err error
			t0 := time.Now()
			if mode == "bin-zerocopy" {
				// The file path: every node maps its own shard locally.
				res, err = c.RunFileContext(context.Background(), spec, binPath)
			} else {
				var src dataset.Source
				var cleanup func()
				src, cleanup, err = openMode(mode)
				if err != nil {
					return 0, nil, err
				}
				res, err = c.RunContext(context.Background(), spec, src)
				cleanup()
			}
			if err != nil {
				return 0, nil, fmt.Errorf("abl-ingest cluster %s threads=%d: %w", mode, threads, err)
			}
			d := time.Since(t0)
			snap := res.Object.Snapshot()
			if rerr := c.Release(res); rerr != nil {
				return 0, nil, rerr
			}
			if best == 0 || d < best {
				best = d
				counts = groupCounts(snap)
			}
		}
		return best, counts, nil
	}

	paths := []struct {
		name string
		run  func(threads int, mode string) (time.Duration, []float64, error)
	}{{"engine", runEngine}, {"cluster", runCluster}}

	var lastEngineSpeedup string
	for _, threads := range p.Threads {
		for _, path := range paths {
			totals := map[string]time.Duration{}
			var refCounts []float64
			for _, mode := range modes {
				total, counts, err := path.run(threads, mode)
				if err != nil {
					return nil, err
				}
				totals[mode] = total
				// The per-group row counts are integer-exact, so every
				// ingestion path must agree bit-for-bit: a mismatch means a
				// path read wrong bytes, not a rounding difference.
				if refCounts == nil {
					refCounts = counts
				} else if err := sameCounts(refCounts, counts); err != nil {
					return nil, fmt.Errorf("abl-ingest: %s/%s threads=%d diverges: %w",
						path.name, mode, threads, err)
				}
			}
			for _, mode := range modes {
				speed := ratio(totals["csv-boxed"], totals[mode])
				col := ""
				if mode != "csv-boxed" {
					col = speed + "x"
				}
				tbl.Rows = append(tbl.Rows, []string{
					path.name, mode, fmt.Sprint(threads),
					secs(totals[mode]), mrows(rows, totals[mode]), col,
				})
				m := Metric{
					Workload: path.name, Version: mode, Threads: threads,
					NsPerOp:    nsPerRow(totals[mode], rows),
					RowsPerSec: rowsPerSec(rows, totals[mode]),
				}
				if mode == "bin-boxed" {
					m.ReadaheadDepth = cal.Depth
				}
				tbl.Metrics = append(tbl.Metrics, m)
				if path.name == "engine" && mode == "bin-zerocopy" &&
					threads == p.Threads[len(p.Threads)-1] {
					lastEngineSpeedup = speed
				}
			}
		}
	}

	probes := make([]string, 0, len(cal.Probes))
	for _, pr := range cal.Probes {
		probes = append(probes, fmt.Sprintf("d%d=%.2f", pr.Depth, pr.HitShare))
	}
	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("read-ahead calibration chose depth %d from hit shares %v (block %d rows)",
			cal.Depth, probes, ingestBlockRows),
		fmt.Sprintf("engine zero-copy vs csv-boxed @%d threads: %sx (memcpy baseline %s Mrows/s bounds all copying paths)",
			p.Threads[len(p.Threads)-1], lastEngineSpeedup, mrows(rows, memcpyTotal)),
		"bin-zerocopy splits alias the mmap'd payload (RowSlicer), so a pass moves no bytes beyond "+
			"page faults; bin-boxed pays one copy per split; csv-boxed re-parses every pass")
	return tbl, nil
}

// groupCounts extracts the per-group row counts (elem 0 of each group) from
// a snapshot of the ingest object — the integer-exact cells used for the
// cross-mode equivalence check.
func groupCounts(snap []float64) []float64 {
	counts := make([]float64, ingestGroups)
	for g := 0; g < ingestGroups; g++ {
		counts[g] = snap[g*2]
	}
	return counts
}

func sameCounts(a, b []float64) error {
	for i := range a {
		if a[i] != b[i] {
			return fmt.Errorf("group %d count %v vs %v", i, a[i], b[i])
		}
	}
	return nil
}

func mrows(rows int, d time.Duration) string {
	if d <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(rows)/d.Seconds()/1e6)
}

func rowsPerSec(rows int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds()
}

func nsPerRow(d time.Duration, rows int) int64 {
	if rows == 0 {
		return 0
	}
	return d.Nanoseconds() / int64(rows)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func init() {
	register(Experiment{
		ID:           "abl-ingest",
		Title:        "zero-copy mmap ingestion vs boxed binary vs CSV parse",
		DefaultScale: 0.01,
		Run:          ablIngest,
	})
}
