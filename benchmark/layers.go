package main

import (
	"bufio"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"chapelfreeride/internal/analyze"
	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
	"chapelfreeride/internal/serve"
)

// The layer suite times each layer's public functions in isolation, on
// fixtures of fixed size that are the same in every traced run, whatever the
// workload. Together with the spans of the traced jobs it says which layer
// moved when an end-to-end number does. Nothing here has a bound; sizes are
// chosen so the whole suite takes seconds.

// timeIt returns f's wall time in seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds()
}

// medianOf runs f reps times and returns the median wall time in seconds.
func medianOf(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		ts[i] = timeIt(f)
	}
	return median(ts)
}

// suiteEnv is what a fixture is made from: the run's seed, and the scale the
// smoke test shrinks fixture sizes by.
type suiteEnv struct {
	seed  int64
	scale float64
}

func (e suiteEnv) size(n, floor int) int { return scaled(n, e.scale, floor) }

// layerSuite fills m with every suite metric. The first error aborts: a
// layer that cannot run its fixture is a broken build, not a data point.
func layerSuite(e suiteEnv, m map[string]metric) error {
	for _, part := range []func(suiteEnv, map[string]metric) error{
		datasetLayer, coreLayer, planLayer, schedLayer, robjLayer,
		freerideLayer, clusterLayer, serveLayer, appsLayer, obsLayer,
	} {
		if err := part(e, m); err != nil {
			return err
		}
		runtime.GC()
	}
	return nil
}

// scanRows reads src once in blocks through ReadRows.
func scanRows(src dataset.Source, buf []float64) error {
	cols := src.Cols()
	block := len(buf) / cols
	for lo := 0; lo < src.NumRows(); lo += block {
		hi := min(lo+block, src.NumRows())
		if err := src.ReadRows(lo, hi, buf[:(hi-lo)*cols]); err != nil {
			return err
		}
	}
	return nil
}

func datasetLayer(e suiteEnv, m map[string]metric) error {
	rows := e.size(1000000, 64*64)
	csvRows := rows / 64
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mat := dataset.NewMatrix(rows, ingestDim)
	fillSmallInts(mat.Data, e.seed)
	path := filepath.Join(dir, "layer.frds")
	m["dataset.write_s"] = metric{timeIt(func() { err = dataset.WriteFile(path, mat) }), "s"}
	if err != nil {
		return err
	}

	var mapped dataset.MappedFile
	m["dataset.open_s"] = metric{timeIt(func() { mapped, err = dataset.OpenMappedSource(path) }), "s"}
	if err != nil {
		return err
	}
	defer mapped.Close()
	buf := make([]float64, ingestBlockRows*ingestDim)
	if err := scanRows(mapped, buf); err != nil { // fault the mapping in once
		return err
	}
	d := medianOf(5, func() { err = scanRows(mapped, buf) })
	if err != nil {
		return err
	}
	m["dataset.memcpy_mrows_per_s"] = metric{float64(rows) / 1e6 / d, "Mrows/s"}

	fs, err := dataset.OpenFileSource(path)
	if err != nil {
		return err
	}
	defer fs.Close()
	d = medianOf(3, func() { err = scanRows(fs, buf) })
	if err != nil {
		return err
	}
	m["dataset.readat_mrows_per_s"] = metric{float64(rows) / 1e6 / d, "Mrows/s"}

	csvPath := filepath.Join(dir, "layer.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	sample := &dataset.Matrix{Rows: csvRows, Cols: ingestDim, Data: mat.Data[:csvRows*ingestDim]}
	err = dataset.WriteCSV(bw, sample, nil)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	csv, err := dataset.OpenCSVFileSource(csvPath, false)
	if err != nil {
		return err
	}
	defer csv.Close()
	d = medianOf(3, func() { err = scanRows(csv, buf) })
	if err != nil {
		return err
	}
	m["dataset.csv_mrows_per_s"] = metric{float64(csvRows) / 1e6 / d, "Mrows/s"}
	return nil
}

func coreLayer(e suiteEnv, m map[string]metric) error {
	const k = 20
	points, _ := dataset.GaussianMixture(e.size(100000, k), kmtDim, k, e.seed)
	boxed := apps.BoxPoints(points)
	cents := apps.BoxPoints(firstRows(points, k))

	var tr *core.Translation
	var err error
	total := timeIt(func() {
		tr, err = core.TranslateWith(apps.KMeansClass(k, kmtDim, cents), boxed, core.Opt2, core.TranslateOptions{})
	})
	if err != nil {
		return err
	}
	lin := tr.LinearizeTime.Seconds()
	m["core.linearize_s"] = metric{lin, "s"}
	m["core.linearize_mwords_per_s"] = metric{float64(len(tr.Words())) / 1e6 / lin, "Mwords/s"}
	m["core.translate_s"] = metric{total - lin, "s"}
	m["core.hot_refresh_s"] = metric{medianOf(50, tr.RefreshHotVars), "s"}

	dim, nnz := e.size(100000, 64), e.size(200000, 256)
	boxedTriples := apps.BoxTriples(randomTriples(e.seed, nnz, dim))
	var coo *core.SparseCOO
	m["core.linearize_coo_s"] = metric{timeIt(func() { coo, err = core.LinearizeCOO(boxedTriples, dim, dim) }), "s"}
	if err != nil {
		return err
	}
	str, err := core.TranslateSparse(apps.SpMVClass(apps.SpMVConfig{Rows: dim, Cols: dim, X: firstX(dim)}), coo, core.Opt3)
	if err != nil {
		return err
	}
	m["core.inspect_s"] = metric{str.InspectTime.Seconds(), "s"}
	m["core.index_table_mb"] = metric{float64(str.Plan().TableBytes()) / 1e6, "MB"}
	return nil
}

// planLayer times the two checks paid before a pass starts: the spec
// verifier (every engine pass) and the advisor (every serve admission).
func planLayer(e suiteEnv, m map[string]metric) error {
	const reps = 2000
	spec := kmeansSpec(make([]float64, clusterK*clusterDim), clusterK, clusterDim)
	d := timeIt(func() {
		for i := 0; i < reps; i++ {
			spec.Verify()
		}
	})
	m["verify.spec_verify_us"] = metric{d / reps * 1e6, "us"}
	d = timeIt(func() {
		for i := 0; i < reps; i++ {
			analyze.Advise(analyze.DenseProfile("kmeans", serveKMRows, serveKMDim, serveKMK, serveKMDim+1, analyze.Options{}), benchThreads)
		}
	})
	m["analyze.advise_us"] = metric{d / reps * 1e6, "us"}
	return nil
}

// pair runs f(0) and f(1) on two goroutines and waits for both.
func pair(f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

func schedLayer(e suiteEnv, m map[string]metric) error {
	const n, chunk, reps = 1 << 18, 64, 20
	for _, p := range sched.Policies() {
		s := sched.New(p, n, 2, chunk)
		var chunks [2]int
		d := timeIt(func() {
			for r := 0; r < reps; r++ {
				s.Reset(n)
				pair(func(w int) {
					for {
						if _, ok := s.Next(w); !ok {
							return
						}
						chunks[w]++
					}
				})
			}
		})
		m["sched.drain_ns_per_chunk."+p.String()] = metric{d * 1e9 / float64(chunks[0]+chunks[1]), "ns"}
	}
	return nil
}

func robjLayer(e suiteEnv, m map[string]metric) error {
	const kmGroups, kmElems = kmtK, kmtDim + 1
	const touched = 4096
	sparseCells := e.size(spmvDim, touched)
	rng := rand.New(rand.NewSource(e.seed))
	cells := make([]int32, touched)
	for i, c := range rng.Perm(sparseCells)[:touched] {
		cells[i] = int32(c)
	}
	ones := make([]float64, max(kmGroups*kmElems, touched))
	for i := range ones {
		ones[i] = 1
	}

	for _, st := range robj.Strategies() {
		o, err := robj.Alloc(st, robj.OpAdd, kmGroups, kmElems, 2)
		if err != nil {
			return err
		}
		const accs = 400000
		d := timeIt(func() {
			pair(func(w int) {
				for i := 0; i < accs; i++ {
					o.Accumulate(w, i%kmGroups, i%kmElems, 1)
				}
			})
		})
		m["robj.accumulate_ns."+st.String()] = metric{d * 1e9 / (2 * accs), "ns"}

		const flushes = 2000
		block := ones[:kmGroups*kmElems]
		d = timeIt(func() {
			pair(func(w int) {
				for i := 0; i < flushes; i++ {
					o.AccumulateBlock(w, block)
				}
			})
		})
		m["robj.block_flush_ns_per_cell."+st.String()] = metric{d * 1e9 / float64(2*flushes*len(block)), "ns"}

		big, err := robj.Alloc(st, robj.OpAdd, sparseCells, 1, 2)
		if err != nil {
			return err
		}
		const scatters = 100
		d = timeIt(func() {
			pair(func(w int) {
				for i := 0; i < scatters; i++ {
					big.AccumulateScattered(w, cells, ones[:touched])
				}
			})
		})
		m["robj.scatter_flush_ns_per_cell."+st.String()] = metric{d * 1e9 / (2 * scatters * touched), "ns"}
	}

	merge := func(groups, elems int, fill func(o *robj.Object)) (float64, error) {
		o, err := robj.Alloc(robj.FullReplication, robj.OpAdd, groups, elems, 2)
		if err != nil {
			return 0, err
		}
		ts := make([]float64, 9)
		for i := range ts {
			fill(o)
			ts[i] = timeIt(o.Merge)
			o.Reset()
		}
		return median(ts), nil
	}
	d, err := merge(1000, 10, func(o *robj.Object) {
		block := make([]float64, 10000)
		for i := range block {
			block[i] = 1
		}
		o.AccumulateBlock(0, block)
		o.AccumulateBlock(1, block)
	})
	if err != nil {
		return err
	}
	m["robj.merge_s.dense10k"] = metric{d, "s"}
	d, err = merge(sparseCells, 1, func(o *robj.Object) {
		o.AccumulateScattered(0, cells, ones[:touched])
		o.AccumulateScattered(1, cells, ones[:touched])
	})
	if err != nil {
		return err
	}
	m["robj.merge_s.sparse500k"] = metric{d, "s"}
	return nil
}

// enginePasses runs spec over src reps times on eng and returns each pass's
// wall time and worker CPU time.
func enginePasses(eng *freeride.Engine, spec freeride.Spec, src dataset.Source, reps int) (wall, cpu []float64, err error) {
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		res, err := eng.RunContext(context.Background(), spec, src)
		if err != nil {
			return nil, nil, err
		}
		wall = append(wall, time.Since(t0).Seconds())
		cpu = append(cpu, res.Stats.CPUTotal().Seconds())
		if err := eng.Release(res); err != nil {
			return nil, nil, err
		}
	}
	return wall, cpu, nil
}

func freerideLayer(e suiteEnv, m map[string]metric) error {
	const k = 20
	points, _ := dataset.GaussianMixture(e.size(200000, k), kmtDim, k, e.seed)
	src := dataset.NewMemorySource(points)
	spec := kmeansSpec(firstRows(points, k).Data, k, kmtDim)
	eng := freeride.New(freeride.Config{Threads: benchThreads})
	defer eng.Close()

	wall, cpu, err := enginePasses(eng, spec, src, 9)
	if err != nil {
		return err
	}
	m["freeride.pass_s"] = metric{median(wall[1:]), "s"}
	m["freeride.pass_cpu_s"] = metric{median(cpu[1:]), "s"}

	// The same source with a kernel that returns at once: what reading,
	// scheduling and flushing cost with no arithmetic.
	noop := spec
	noop.Reduction = func(*freeride.ReductionArgs) error { return nil }
	if wall, _, err = enginePasses(eng, noop, src, 21); err != nil {
		return err
	}
	m["freeride.noop_pass_s"] = metric{median(wall[1:]), "s"}

	// A source with no rows: the fixed cost of a pass.
	empty := dataset.NewMemorySource(dataset.NewMatrix(0, kmtDim))
	if wall, _, err = enginePasses(eng, spec, empty, 201); err != nil {
		return err
	}
	m["freeride.empty_pass_us"] = metric{median(wall[1:]) * 1e6, "us"}

	var before, after runtime.MemStats
	const allocPasses = 50
	runtime.ReadMemStats(&before)
	if _, _, err = enginePasses(eng, noop, src, allocPasses); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	m["freeride.allocs_per_pass"] = metric{float64(after.Mallocs-before.Mallocs) / allocPasses, "count"}

	// Two-thread parallel efficiency: t(1 thread) / (2 · t(2 threads)). On a
	// host with one core it reads about 0.5.
	one := freeride.New(freeride.Config{Threads: 1})
	defer one.Close()
	two := freeride.New(freeride.Config{Threads: 2})
	defer two.Close()
	w1, _, err := enginePasses(one, spec, src, 6)
	if err != nil {
		return err
	}
	w2, _, err := enginePasses(two, spec, src, 6)
	if err != nil {
		return err
	}
	m["freeride.par_eff_2t"] = metric{median(w1[1:]) / (2 * median(w2[1:])), "ratio"}
	return nil
}

func clusterLayer(e suiteEnv, m map[string]metric) error {
	passes := e.size(200, 8)
	points, _ := dataset.GaussianMixture(clusterRows, clusterDim, clusterK, e.seed)
	spec := kmeansSpec(firstRows(points, clusterK).Data, clusterK, clusterDim)
	cl := cluster.New(cluster.Config{
		Nodes: clusterNodes, PerNode: freeride.Config{Threads: 1}, Transport: cluster.TCP,
	})
	defer cl.Close()
	src := dataset.NewMemorySource(points)
	ts := make([]float64, passes)
	var moved int64
	for i := range ts {
		t0 := time.Now()
		res, err := cl.RunContext(context.Background(), spec, src)
		if err != nil {
			return err
		}
		ts[i] = time.Since(t0).Seconds()
		moved = res.Stats.BytesMoved
		if err := cl.Release(res); err != nil {
			return err
		}
	}
	steady := median(ts[1:])
	m["cluster.pass_s"] = metric{steady, "s"}
	m["cluster.mesh_setup_s"] = metric{ts[0] - steady, "s"}
	m["cluster.bytes_per_pass"] = metric{float64(moved), "bytes"}

	// One node's shard on one engine: what is left of a cluster pass is the
	// cost of having a cluster.
	shard := &dataset.Matrix{Rows: clusterRows / clusterNodes, Cols: clusterDim, Data: points.Data[:clusterRows/clusterNodes*clusterDim]}
	eng := freeride.New(freeride.Config{Threads: 1})
	defer eng.Close()
	wall, _, err := enginePasses(eng, spec, dataset.NewMemorySource(shard), passes)
	if err != nil {
		return err
	}
	m["cluster.combine_overhead_s"] = metric{steady - median(wall[1:]), "s"}
	return nil
}

// serveLayer runs a quarter-size serve_mixed for two rounds and reads the
// serve numbers off it, then probes the floor, registration and
// materialization costs one request at a time.
func serveLayer(e suiteEnv, m map[string]metric) error {
	w := newServeMixed(e.seed, 0.25*e.scale).(*serveMixed)
	if err := w.setup(); err != nil {
		return err
	}
	defer w.teardown()
	m["serve.register_s"] = metric{median(w.registerS), "s"}

	before := obs.Default.CounterSnapshot()
	var replies []serveReply
	for round := 0; round < 2; round++ {
		if _, err := w.job(false, &jobTrace{}); err != nil {
			return err
		}
		replies = append(replies, w.replies...)
	}
	delta := obs.Default.CounterSnapshot().Diff(before)
	hits, misses := float64(delta["serve_dataset_cache_hits_total"]), float64(delta["serve_dataset_cache_misses_total"])
	m["serve.cache_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
	lat := map[string][]float64{}
	var queue, service []float64
	rejected := 0
	for _, r := range replies {
		if r.code == 429 {
			rejected++
			continue
		}
		lat[r.req.kind] = append(lat[r.req.kind], r.latency)
		queue = append(queue, r.status.QueueMillis)
		service = append(service, r.status.ServiceMillis)
	}
	m["serve.rejected"] = metric{float64(rejected), "count"}
	m["serve.queue_ms_p50"] = metric{median(queue), "ms"}
	m["serve.service_ms_p50"] = metric{median(service), "ms"}
	for _, kind := range []string{"kmeans", "pca", "spmv"} {
		m["serve.lat_s_p50."+kind] = metric{median(lat[kind]), "s"}
	}

	// The floor: a one-pass job on 64 rows is admission, JSON and hand-off.
	post := func(kernel, ds string, p serve.Params) (float64, error) {
		req := serveRequest{body: w.request(0, kernel, ds, p), kind: kernel}
		r, err := w.send(&req, &jobTrace{})
		return r.latency, err
	}
	if err := w.register(serve.DatasetSpec{Name: "tiny", Kind: "gaussian", Rows: 64, Dim: serveKMDim, Groups: 2, Seed: e.seed}); err != nil {
		return err
	}
	floor := make([]float64, 50)
	for i := range floor {
		var err error
		if floor[i], err = post("kmeans", "tiny", serve.Params{K: 2, Iterations: 1}); err != nil {
			return err
		}
	}
	m["serve.roundtrip_floor_s"] = metric{median(floor), "s"}

	// Cold minus warm on a recipe nobody has touched: materialization.
	if err := w.register(serve.DatasetSpec{Name: "cold", Kind: "gaussian", Rows: e.size(serveKMRows, 4*serveKMK), Dim: serveKMDim, Groups: serveKMK, Seed: e.seed + 9}); err != nil {
		return err
	}
	p := serve.Params{K: serveKMK, Iterations: 1}
	cold, err := post("kmeans", "cold", p)
	if err != nil {
		return err
	}
	warm, err := post("kmeans", "cold", p)
	if err != nil {
		return err
	}
	m["serve.materialize_s"] = metric{cold - warm, "s"}
	return nil
}

// appsLayer keeps three of the paper's rows honest once per traced run: the
// Map-Reduce baseline (Fig 4), PCA opt-2 over manual (Fig 13's shape) and
// the cost of boxing.
func appsLayer(e suiteEnv, m map[string]metric) error {
	points, _ := dataset.GaussianMixture(e.size(kmtRows/8, kmtK), kmtDim, kmtK, e.seed)
	cfg := apps.KMeansConfig{K: kmtK, Iterations: kmtIters, Engine: freeride.Config{Threads: benchThreads}}
	var err error
	m["mapreduce.kmeans_job_s"] = metric{timeIt(func() { _, err = apps.KMeansMapReduce(points, firstRows(points, kmtK), cfg) }), "s"}
	if err != nil {
		return err
	}
	m["apps.box_s"] = metric{timeIt(func() { apps.BoxPoints(points) }), "s"}

	data := dataset.UniformMatrix(e.size(10000, 20), 100, e.seed, 0, 1)
	boxed := apps.BoxMatrix(data)
	pcaCfg := apps.PCAConfig{Engine: freeride.Config{Threads: benchThreads}}
	opt2 := timeIt(func() { _, err = apps.PCATranslated(boxed, core.Opt2, pcaCfg) })
	if err != nil {
		return err
	}
	manual := timeIt(func() { _, err = apps.PCAManualFR(data, pcaCfg) })
	if err != nil {
		return err
	}
	m["apps.pca_opt2_over_manual"] = metric{opt2 / manual, "ratio"}
	return nil
}

func obsLayer(e suiteEnv, m map[string]metric) error {
	const reps = 2000000
	reg := obs.NewRegistry()
	c := reg.Counter("bench_probe_total", "benchmark probe")
	h := reg.Histogram("bench_probe_seconds", "benchmark probe")
	d := timeIt(func() {
		for i := 0; i < reps; i++ {
			c.Add(1)
		}
	})
	m["obs.counter_add_ns"] = metric{d * 1e9 / reps, "ns"}
	d = timeIt(func() {
		for i := 0; i < reps; i++ {
			h.Observe(float64(i&1023) * 1e-6)
		}
	})
	m["obs.observe_ns"] = metric{d * 1e9 / reps, "ns"}
	return nil
}
