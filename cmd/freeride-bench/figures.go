package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/mapreduce"
)

// kmeansDim is the feature dimensionality of the synthetic point datasets
// (12 MB at dim=10 gives the paper's ~157k points; 1.2 GB gives ~15.7M).
const kmeansDim = 10

// kmeansData generates the k-means input for a target (scaled) size. The
// result always has at least minRows points so tiny scales can still seed
// k centroids.
func kmeansData(targetBytes int64, scale float64, seed int64, minRows int) *dataset.Matrix {
	n := max(dataset.KMeansPointsForBytes(int64(float64(targetBytes)*scale), kmeansDim), minRows)
	points, _ := dataset.GaussianMixture(n, kmeansDim, 20, seed)
	return points
}

// firstK picks the first k points as the deterministic initial centroids.
func firstK(points *dataset.Matrix, k int) *dataset.Matrix {
	init := dataset.NewMatrix(k, points.Cols)
	copy(init.Data, points.Data[:k*points.Cols])
	return init
}

// splitRowsFor picks a split size that yields ~8 splits per thread so the
// scheduler has work to balance even on scaled-down datasets.
func splitRowsFor(rows, threads int) int {
	return max(rows/(threads*8), 64)
}

// runs is one cell's repeated measurement: every run's timing, fastest
// first.
type runs []apps.Timing

// measure runs one measurement reps times and keeps every run.
func measure(reps int, run func() (apps.Timing, error)) (runs, error) {
	out := make(runs, 0, reps)
	for r := 0; r < reps; r++ {
		t, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total() < out[j].Total() })
	return out, nil
}

// fastest is the run least disturbed by scheduling noise; its phases fill
// the per-phase columns.
func (r runs) fastest() apps.Timing { return r[0] }

// median is the middle run's total, or the mean of the middle two.
func (r runs) median() time.Duration {
	n := len(r)
	return (r[(n-1)/2].Total() + r[n/2].Total()) / 2
}

// spread is the slowest run's total minus the fastest's.
func (r runs) spread() time.Duration { return r[len(r)-1].Total() - r[0].Total() }

// versus formats a's median over b's. It is marked unresolved when either
// side's spread is wider than the difference of the medians: the runs
// cannot then tell which side is faster, whatever the ratio reads.
func versus(a, b runs) string {
	s := ratio(a.median(), b.median())
	diff := a.median() - b.median()
	if max(a.spread(), b.spread()) > max(diff, -diff) {
		s += " (unresolved)"
	}
	return s
}

// kmeansFigure runs one of the paper's k-means figures: the four versions
// (generated, opt-1, opt-2, manual FR) across the thread sweep.
func kmeansFigure(id, title string, targetBytes int64, k, iters int) func(params) (*table, error) {
	return func(p params) (*table, error) {
		points := kmeansData(targetBytes, p.scale, p.seed, k+1)
		init := firstK(points, k)
		boxed := apps.BoxPoints(points)

		versions := []apps.Version{apps.Generated, apps.Opt1, apps.Opt2, apps.ManualFR}
		tbl := &table{
			id: id,
			title: fmt.Sprintf("%s — %d points × %d dims (%.1f MB), k=%d, i=%d",
				title, points.Rows, kmeansDim, float64(points.SizeBytes())/(1<<20), k, iters),
			columns: []string{"threads", "version", "min(s)", "median(s)", "linearize(s)", "reduce(s)", "vs manual"},
		}
		sw := sweep{}
		for _, threads := range p.threads {
			cfg := apps.KMeansConfig{
				K: k, Iterations: iters,
				Engine: freeride.Config{Threads: threads, SplitRows: splitRowsFor(points.Rows, threads)},
			}
			timings := map[apps.Version]runs{}
			sw[threads] = timings
			for _, v := range versions {
				tm, err := measure(p.reps, func() (apps.Timing, error) {
					var res *apps.KMeansResult
					var err error
					if v == apps.ManualFR {
						res, err = apps.KMeansManualFR(points, init, cfg)
					} else {
						res, err = apps.KMeansTranslated(boxed, init, optOf(v), cfg)
					}
					if err != nil {
						return apps.Timing{}, err
					}
					return res.Timing, nil
				})
				if err != nil {
					return nil, fmt.Errorf("%s %v threads=%d: %w", id, v, threads, err)
				}
				timings[v] = tm
			}
			for _, v := range versions {
				tm := timings[v]
				tbl.rows = append(tbl.rows, []string{
					fmt.Sprint(threads), v.String(),
					secs(tm.fastest().Total()), secs(tm.median()),
					secs(tm.fastest().Linearize), secs(tm.fastest().Reduce),
					vsManual(v, tm, timings[apps.ManualFR]),
				})
			}
		}
		// Shape notes matching §V-A's observations.
		t1 := p.threads[0]
		gen := sw.total(t1, apps.Generated)
		o1 := sw.total(t1, apps.Opt1)
		o2 := sw.total(t1, apps.Opt2)
		man := sw.total(t1, apps.ManualFR)
		tbl.notes = append(tbl.notes,
			fmt.Sprintf("%d thread(s): opt-1 saves %s of generated (paper: ~10%%)", t1, pct(gen-o1, gen)),
			fmt.Sprintf("%d thread(s): generated / opt-2 = %s (paper: ~8x on k=100)", t1, ratio(gen, o2)),
			fmt.Sprintf("%d thread(s): opt-2 / manual = %s (paper: within ~1.2x)", t1, versus(sw[t1][apps.Opt2], sw[t1][apps.ManualFR])),
		)
		if last := p.threads[len(p.threads)-1]; last != t1 {
			tbl.notes = append(tbl.notes,
				fmt.Sprintf("%d → %d threads: opt-2 scales %sx, manual %sx (paper: both scale well)",
					t1, last,
					ratio(o2, sw.total(last, apps.Opt2)),
					ratio(man, sw.total(last, apps.ManualFR))),
				fmt.Sprintf("opt-2 / manual: %s at %d thread(s) → %s at %d threads (paper: gap widens — sequential linearization)",
					versus(sw[t1][apps.Opt2], sw[t1][apps.ManualFR]), t1,
					versus(sw[last][apps.Opt2], sw[last][apps.ManualFR]), last))
		}
		return tbl, nil
	}
}

// pcaFigure runs one of the paper's PCA figures. The paper's matrices are
// stated as rows×columns where rows is the dimensionality and columns the
// number of data elements; our generator produces elements×dims, the same
// workload transposed. Scale shrinks both axes by its cube root so the
// total work (elements × dims²) scales linearly with scale.
func pcaFigure(id, title string, dims, elems int) func(params) (*table, error) {
	return func(p params) (*table, error) {
		f := math.Cbrt(p.scale)
		d := max(4, int(float64(dims)*f))
		n := max(8, int(float64(elems)*f))
		data := dataset.UniformMatrix(n, d, p.seed, -5, 5)
		boxed := apps.BoxMatrix(data)

		tbl := &table{
			id:      id,
			title:   fmt.Sprintf("%s — %d elements × %d dims", title, n, d),
			columns: []string{"threads", "version", "min(s)", "median(s)", "reduce(s)", "vs manual"},
		}
		sw := sweep{}
		versions := []apps.Version{apps.Opt2, apps.ManualFR}
		for _, threads := range p.threads {
			cfg := apps.PCAConfig{Engine: freeride.Config{
				Threads: threads, SplitRows: splitRowsFor(n, threads),
			}}
			timings := map[apps.Version]runs{}
			sw[threads] = timings
			for _, v := range versions {
				tm, err := measure(p.reps, func() (apps.Timing, error) {
					var res *apps.PCAResult
					var err error
					if v == apps.ManualFR {
						res, err = apps.PCAManualFR(data, cfg)
					} else {
						res, err = apps.PCATranslated(boxed, optOf(v), cfg)
					}
					if err != nil {
						return apps.Timing{}, err
					}
					return res.Timing, nil
				})
				if err != nil {
					return nil, fmt.Errorf("%s %v threads=%d: %w", id, v, threads, err)
				}
				timings[v] = tm
			}
			for _, v := range versions {
				tm := timings[v]
				tbl.rows = append(tbl.rows, []string{
					fmt.Sprint(threads), v.String(),
					secs(tm.fastest().Total()), secs(tm.median()), secs(tm.fastest().Reduce),
					vsManual(v, tm, timings[apps.ManualFR]),
				})
			}
		}
		t1 := p.threads[0]
		tbl.notes = append(tbl.notes,
			fmt.Sprintf("%d thread(s): opt-2 / manual = %s (paper: within ~1.2x)",
				t1, versus(sw[t1][apps.Opt2], sw[t1][apps.ManualFR])))
		if last := p.threads[len(p.threads)-1]; last != t1 {
			tbl.notes = append(tbl.notes,
				fmt.Sprintf("%d → %d threads (manual): scales %sx (paper: good scalability to 4 threads, limited at 8 by load balance)",
					t1, last, ratio(sw.total(t1, apps.ManualFR), sw.total(last, apps.ManualFR))))
		}
		return tbl, nil
	}
}

// fig4K is the cluster count of fig4's k-means, the most pairs one
// Map-Reduce worker's combiner can leave per iteration.
const fig4K = 32

// fig4 contrasts the two processing structures of the paper's Fig. 4 on
// k-means: FREERIDE reduces every element into the reduction object in
// place, while Map-Reduce materializes one (cluster, vector) pair per
// point, sorts and groups them, then reduces — with and without a
// per-worker combiner.
func fig4(p params) (*table, error) {
	const k, iters = fig4K, 5
	points := kmeansData(64<<20, p.scale, p.seed, k+1)
	init := firstK(points, k)
	tbl := &table{
		id:    "fig4",
		title: fmt.Sprintf("FREERIDE vs Map-Reduce (Fig. 4 structures) — k-means %d points, k=%d, i=%d", points.Rows, k, iters),
		columns: []string{"threads", "runtime", "min(s)", "median(s)", "vs freeride",
			"emitted pairs/iter", "sorted pairs/iter"},
	}
	variants := []struct {
		name         string
		mr, combiner bool
	}{
		{name: "freeride (manual)"},
		{name: "map-reduce", mr: true},
		{name: "map-reduce+combiner", mr: true, combiner: true},
	}
	for _, threads := range p.threads {
		var base runs
		for _, v := range variants {
			cfg := apps.KMeansConfig{
				K: k, Iterations: iters,
				Engine:      freeride.Config{Threads: threads},
				UseCombiner: v.combiner,
			}
			tm, err := measure(p.reps, func() (apps.Timing, error) {
				kmeans := apps.KMeansManualFR
				if v.mr {
					kmeans = apps.KMeansMapReduce
				}
				res, err := kmeans(points, init, cfg)
				if err != nil {
					return apps.Timing{}, err
				}
				return res.Timing, nil
			})
			if err != nil {
				return nil, fmt.Errorf("fig4 %s threads=%d: %w", v.name, threads, err)
			}
			var stats mapreduce.Stats
			vs := "1.00"
			if v.mr {
				if stats, err = mrPairs(points, init, threads, v.combiner); err != nil {
					return nil, fmt.Errorf("fig4 %s threads=%d: %w", v.name, threads, err)
				}
				vs = versus(tm, base)
			} else {
				base = tm
			}
			tbl.rows = append(tbl.rows, []string{
				fmt.Sprint(threads), v.name, secs(tm.fastest().Total()), secs(tm.median()), vs,
				fmt.Sprint(stats.EmittedPairs), fmt.Sprint(stats.IntermediatePairs),
			})
		}
	}
	tbl.notes = append(tbl.notes,
		"freeride materializes zero intermediate pairs by construction; map-reduce sorts one pair per point, "+
			"a combiner cuts that to at most one per cluster per worker (§III, ref [14]'s comparison)")
	return tbl, nil
}

// mrPairs runs one Map-Reduce k-means iteration from the initial centroids
// and returns its statistics: the pairs map emitted and the pairs that
// entered the sort after the optional combiner.
func mrPairs(points, init *dataset.Matrix, workers int, combiner bool) (mapreduce.Stats, error) {
	k, dim := init.Rows, points.Cols
	cents := init.Data
	sum := func(_ int, vals [][]float64) []float64 {
		out := make([]float64, dim+1)
		for _, v := range vals {
			for j := range out {
				out[j] += v[j]
			}
		}
		return out
	}
	spec := mapreduce.Spec[int, []float64]{
		Map: func(a *mapreduce.MapArgs, emit func(int, []float64)) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				c, bestDist := 0, math.Inf(1)
				for cand := 0; cand < k; cand++ {
					var d float64
					for j, x := range cents[cand*dim : (cand+1)*dim] {
						diff := row[j] - x
						d += diff * diff
					}
					if d < bestDist {
						c, bestDist = cand, d
					}
				}
				v := make([]float64, dim+1)
				copy(v, row)
				v[dim] = 1
				emit(c, v)
			}
			return nil
		},
		Reduce: sum,
	}
	if combiner {
		spec.Combine = sum
	}
	eng := mapreduce.New[int, []float64](mapreduce.Config{Workers: workers})
	_, stats, err := eng.Run(spec, dataset.NewMemorySource(points))
	return stats, err
}

// optOf maps a translated apps.Version to its core optimization level.
func optOf(v apps.Version) core.OptLevel {
	switch v {
	case apps.Generated:
		return core.OptNone
	case apps.Opt1:
		return core.Opt1
	default:
		return core.Opt2
	}
}

// sweep holds a figure's runs per thread count and version.
type sweep map[int]map[apps.Version]runs

// total is the median total of one version at one thread count.
func (s sweep) total(threads int, v apps.Version) time.Duration { return s[threads][v].median() }

// vsManual is a row's "vs manual" cell: versus the manual runs, or 1.00 on
// manual's own row.
func vsManual(v apps.Version, r, manual runs) string {
	if v == apps.ManualFR {
		return "1.00"
	}
	return versus(r, manual)
}

// secs formats a duration in seconds with millisecond precision.
func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

// ratio formats a/b, guarding division by zero.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// pct formats part/whole as a percentage.
func pct(part, whole time.Duration) string {
	if whole == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}
