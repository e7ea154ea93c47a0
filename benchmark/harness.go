package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"chapelfreeride/internal/obs"
)

// benchThreads is the engine thread count and GOMAXPROCS of every run: the
// reference host has two cores, and no workload runs more threads than that.
const benchThreads = 2

// buildDir, in the working directory, holds everything a run writes: it is
// inside the checkout and named in .gitignore.
const buildDir = ".bench_build"

// tempDir makes a fresh directory under buildDir for a run's files.
func tempDir() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(buildDir, "tmp-")
}

// warmupJobs are run and checked before the measured window and discarded.
const warmupJobs = 2

// A workload is one set of generated inputs plus the job repeated on it.
type workload interface {
	// setup generates the inputs from the seed, computes the reference
	// results the checks compare against, and brings the program to the
	// state just before the first job.
	setup() error
	// teardown releases everything setup created.
	teardown() error
	// job runs one job. Plain jobs (layered false) go through the entry
	// point a user would call; layered jobs assemble the same work from the
	// layers' public functions, recording a span around each call when jt
	// carries a tracer.
	job(layered bool, jt *jobTrace) (jobOut, error)
	// reference runs the workload's interleaved reference once and returns
	// its wall time in seconds.
	reference() (float64, error)
}

// jobOut is what one job hands back to the harness.
type jobOut struct {
	// samples are the job_s samples taken, in seconds: one for a batch
	// job, one per request for a serve round.
	samples []float64
	// wall is the wall time the samples were taken in; rows ÷ wall is the
	// job's throughput.
	wall float64
	// rows is the number of dataset rows (sparse: entries) scanned.
	rows int64
	// classes tallies the job's operations by kind (passes, requests per
	// kernel): counts that must repeat exactly between same-seed runs.
	classes map[string]int64
	// check verifies the job's outputs against the references, outside the
	// timed region, and returns operations attempted and failed.
	check func() (attempted, failed int)
}

type workloadDef struct {
	name string
	why  string
	// setupReps is how many times set-up runs, its median being reported:
	// several for the cheap set-ups, once where one takes seconds and is
	// steady on its own.
	setupReps int
	new       func(seed int64, scale float64) workload
}

var workloads = []workloadDef{
	{"kmeans_translated", "the paper's headline: opt-2 translated k-means against manual FREERIDE; core linearize and the per-element engine loop do the work", 1, newKMeansTranslated},
	{"ingest_fused", "bandwidth-bound: 1.0 GB mapped file through zero-copy splits and the fused block path; core translate and per-element dispatch are bypassed", 1, newIngestFused},
	{"spmv_power", "uses the reduction object the sparse way: 500 k-cell object, hashed accumulator, scattered flush, int32 index tables; inspector once, 40 passes of 2 M entries", 1, newSpMVPower},
	{"cluster_iter", "latency-bound: 2000 passes over points that fit in L2, 2 nodes over loopback TCP; per-pass fixed cost (ticket, scheduler reset, pool, merge, gob, combine) decides the time", 3, newClusterIter},
	{"serve_mixed", "closed loop of 2 clients through the serve frontend: admission, queue, dataset cache at 0.75 of the working set, advisor, serve kernels, JSON", 3, newServeMixed},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported number; the last stdout line carries them by name.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// scale shrinks every input size and jobs fixes the job count; both
	// exist for the smoke test and -selfcheck, and make a run not
	// comparable with the benchmark's numbers.
	scale float64
	jobs  int
}

func (c runConfig) comparable() bool { return c.scale == 1 && c.jobs == 0 }

// processCPU is the process's consumed CPU time, user plus system.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssSampler tracks the maximum resident set size over the measured window.
// It reads /proc/self/statm through one open file into one buffer, so that
// sampling adds nothing to alloc_mb_per_job.
type rssSampler struct {
	f    *os.File
	buf  [128]byte
	stop chan struct{}
	wg   sync.WaitGroup
	peak float64
}

// rssMB is the resident set size now: the second field of statm, in pages.
func (s *rssSampler) rssMB() float64 {
	n, _ := s.f.ReadAt(s.buf[:], 0)
	pages, field := 0, 0
	for _, c := range s.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1:
			pages = pages*10 + int(c-'0')
		}
		if field > 1 {
			break
		}
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
}

func startRSSSampler() (*rssSampler, error) {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil, err
	}
	s := &rssSampler{f: f, stop: make(chan struct{})}
	s.peak = s.rssMB()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peak = max(s.peak, s.rssMB())
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and returns the peak, in MB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	peak := max(s.peak, s.rssMB())
	s.f.Close()
	return peak
}

// windowTotals accumulates what the measured jobs of one run produced.
type windowTotals struct {
	samples   []float64
	refs      []float64
	wall      float64
	cpu       float64
	allocMB   float64
	rows      int64
	jobs      int
	attempted int
	failed    int
	classes   map[string]int64
}

func (t *windowTotals) add(out jobOut, cpu, allocMB float64) {
	t.samples = append(t.samples, out.samples...)
	t.wall += out.wall
	t.cpu += cpu
	t.allocMB += allocMB
	t.rows += out.rows
	t.jobs++
	a, f := out.check()
	t.attempted += a
	t.failed += f
	if t.classes == nil {
		t.classes = map[string]int64{}
	}
	for k, v := range out.classes {
		t.classes[k] += v
	}
}

// measuredJob runs one job with the garbage of earlier work collected first
// and CPU time and allocation taken around it alone.
func measuredJob(w workload, layered bool, tr *tracer, into *windowTotals) error {
	runtime.GC()
	cpu0, alloc0 := processCPU(), totalAlloc()
	// The job's root span opens here, after the collection, so that a traced
	// job's wall is the job's and the shares can add up to it.
	out, err := w.job(layered, tr.startJob(into.jobs))
	if err != nil {
		return err
	}
	cpu, alloc := processCPU()-cpu0, float64(totalAlloc()-alloc0)/(1<<20)
	into.add(out, cpu, alloc)
	return nil
}

// runWorkload is one benchmark run: set-up, warm-up, the measured window,
// and either the end-to-end metrics (untraced) or the per-layer ones.
func runWorkload(cfg runConfig) (report, error) {
	def, ok := findWorkload(cfg.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(benchThreads)
	w := def.new(cfg.seed, cfg.scale)
	// A run that fails part-way still removes what it wrote (ingest_fused's
	// point file); teardown after the window below makes this one a no-op.
	defer w.teardown()

	var setups []float64
	for i := 0; i < def.setupReps; i++ {
		if i > 0 {
			if err := w.teardown(); err != nil {
				return report{}, err
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	var warm windowTotals
	for i := 0; i < warmupJobs; i++ {
		if err := measuredJob(w, false, nil, &warm); err != nil {
			return report{}, fmt.Errorf("warm-up job: %w", err)
		}
	}
	if _, err := w.reference(); err != nil {
		return report{}, fmt.Errorf("warm-up reference: %w", err)
	}
	setupS := median(setups) + time.Since(t0).Seconds()
	if warm.failed > 0 {
		return report{}, fmt.Errorf("warm-up: %d of %d operations failed their result check", warm.failed, warm.attempted)
	}

	// Generator scratch is returned to the OS before the window opens, so
	// peak_rss_mb is the program's footprint and not the set-up's.
	debug.FreeOSMemory()

	var rep report
	var err error
	if cfg.trace {
		rep, err = tracedWindow(cfg, w)
	} else {
		rep, err = measuredWindow(cfg, w, setupS)
	}
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return report{}, err
	}
	if cfg.trace {
		debug.FreeOSMemory()
		if err := layerSuite(suiteEnv{cfg.seed, cfg.scale}, rep.Metrics); err != nil {
			return report{}, fmt.Errorf("layer suite: %w", err)
		}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// windowOpen reports whether another job starts: a fixed count when one was
// asked for, else until the window has lasted cfg.seconds (and at least two
// jobs, so a reference has run).
func windowOpen(cfg runConfig, done int, since time.Time) bool {
	if cfg.jobs > 0 {
		return done < cfg.jobs
	}
	return done < 2 || time.Since(since).Seconds() < cfg.seconds
}

func measuredWindow(cfg runConfig, w workload, setupS float64) (report, error) {
	var tot windowTotals
	rss, err := startRSSSampler()
	if err != nil {
		return report{}, err
	}
	before := obs.Default.CounterSnapshot()
	start := time.Now()
	for windowOpen(cfg, tot.jobs, start) {
		if err := measuredJob(w, false, nil, &tot); err != nil {
			rss.finish()
			return report{}, err
		}
		// The reference follows every second job, so slow drift of the
		// host reaches both sides of ref_ratio.
		if tot.jobs%2 == 0 {
			runtime.GC()
			r, err := w.reference()
			if err != nil {
				rss.finish()
				return report{}, fmt.Errorf("reference: %w", err)
			}
			tot.refs = append(tot.refs, r)
		}
	}
	peak := rss.finish()

	mrows := float64(tot.rows) / 1e6
	p50 := median(tot.samples)
	m := map[string]metric{
		"setup_s":          {setupS, "s"},
		"job_s_p50":        {p50, "s"},
		"job_s_p90":        {highPercentile(tot.samples), "s"},
		"mrows_per_s":      {mrows / tot.wall, "Mrows/s"},
		"cpu_s_per_mrow":   {tot.cpu / mrows, "s/Mrow"},
		"ref_ratio":        {p50 / median(tot.refs), "ratio"},
		"alloc_mb_per_job": {tot.allocMB / float64(len(tot.samples)), "MB"},
		"peak_rss_mb":      {peak, "MB"},
	}
	fmt.Printf("samples: job_s n=%d, reference n=%d, window %.2f s\n",
		len(tot.samples), len(tot.refs), time.Since(start).Seconds())
	if len(tot.samples) <= 16 {
		fmt.Printf("job_s: %.4f\nreference_s: %.4f\n", tot.samples, tot.refs)
	}
	printCounts(tot, obs.Default.CounterSnapshot().Diff(before))
	return report{Attempted: tot.attempted, Failed: tot.failed, Metrics: m}, nil
}

// printCounts prints the window's counts that must repeat exactly between
// two runs with one seed and job count: what the jobs report about
// themselves, and what the engine, scheduler and translator counted (jobs
// and references together). -selfcheck compares these lines.
func printCounts(tot windowTotals, delta obs.CounterSnapshot) {
	keys := make([]string, 0, len(tot.classes))
	for k := range tot.classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "counts: jobs=%d rows=%d", tot.jobs, tot.rows)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, tot.classes[k])
	}
	for _, c := range []string{"freeride_runs_total", "sched_chunks_total", "freeride_block_flushes_total",
		"freeride_scatter_flushes_total", "freeride_index_table_bytes"} {
		fmt.Fprintf(&b, " %s=%.0f", c, counterSum(delta, c))
	}
	fmt.Println(b.String())
}

// counterSum adds up a counter family's delta over all its label sets.
func counterSum(delta obs.CounterSnapshot, family string) float64 {
	var t int64
	for k, v := range delta {
		if k == family || strings.HasPrefix(k, family+"{") {
			t += v
		}
	}
	return float64(t)
}

// tracedWindow cycles three forms of the job — the plain entry point, the
// job assembled from layer calls without spans, and the same with spans — so
// the cost of assembling and the cost of tracing are each a ratio of two
// medians taken in one run.
func tracedWindow(cfg runConfig, w workload) (report, error) {
	tr := newTracer()
	var plain, layered, traced windowTotals
	before := obs.Default.CounterSnapshot()
	start := time.Now()
	for n := 0; windowOpen(cfg, n, start) || n%3 != 0; n++ {
		var err error
		switch n % 3 {
		case 0:
			err = measuredJob(w, false, nil, &plain)
		case 1:
			err = measuredJob(w, true, nil, &layered)
		case 2:
			err = measuredJob(w, true, tr, &traced)
		}
		if err != nil {
			return report{}, err
		}
	}
	delta := obs.Default.CounterSnapshot().Diff(before)

	m := map[string]metric{}
	self := tr.selfTimes()
	var attributed float64
	for _, layer := range traceLayers {
		attributed += self[layer]
		m["trace.self_s."+layer] = metric{self[layer] / float64(traced.jobs), "s"}
	}
	m["trace.coverage"] = metric{attributed / (attributed + self[rootLayer]), "ratio"}
	m["trace.overhead_ratio"] = metric{median(traced.samples) / median(layered.samples), "ratio"}
	m["trace.e2e_gap"] = metric{median(layered.samples) / median(plain.samples), "ratio"}
	// The workload's own pass: the median span of the engine or cluster
	// passes its traced jobs made (serve_mixed makes none itself), and the
	// process CPU of all three forms per engine pass.
	m["trace.pass_s"] = metric{tr.medianSpan("RunContext"), "s"}
	m["trace.cpu_s_per_pass"] = metric{(plain.cpu + layered.cpu + traced.cpu) / max(counterSum(delta, "freeride_runs_total"), 1), "s"}
	passCounts(delta, m)

	fmt.Printf("samples: plain n=%d, layered n=%d, traced n=%d, window %.2f s\n",
		len(plain.samples), len(layered.samples), len(traced.samples), time.Since(start).Seconds())
	if len(plain.samples) <= 16 {
		fmt.Printf("plain_s: %.4f\nlayered_s: %.4f\ntraced_s: %.4f\n", plain.samples, layered.samples, traced.samples)
	}
	if cfg.traceOut != "" {
		if err := tr.write(cfg.traceOut); err != nil {
			return report{}, err
		}
	}
	printCounts(windowTotals{jobs: plain.jobs + layered.jobs + traced.jobs, rows: plain.rows + layered.rows + traced.rows}, delta)
	return report{
		Attempted: plain.attempted + layered.attempted + traced.attempted,
		Failed:    plain.failed + layered.failed + traced.failed,
		Metrics:   m,
	}, nil
}

// passCounts turns the window's obs counter deltas into per-pass counts: the
// work the scheduler and the reduction object did, measured where it happens.
func passCounts(delta obs.CounterSnapshot, m map[string]metric) {
	get := func(family string) float64 { return counterSum(delta, family) }
	passes := max(get("freeride_runs_total"), 1)
	m["freeride.passes"] = metric{get("freeride_runs_total"), "count"}
	m["sched.chunks_per_pass"] = metric{get("sched_chunks_total") / passes, "count"}
	m["sched.steals_per_pass"] = metric{get("sched_steals_total") / passes, "count"}
	m["freeride.block_flushes_per_pass"] = metric{get("freeride_block_flushes_total") / passes, "count"}
	m["freeride.scatter_flushes_per_pass"] = metric{get("freeride_scatter_flushes_total") / passes, "count"}
	m["robj.cas_retries_per_pass"] = metric{get("robj_cas_retries_total") / passes, "count"}
	hits, misses := get("robj_pool_hits_total"), get("robj_pool_misses_total")
	m["robj.pool_hit_ratio"] = metric{hits / max(hits+misses, 1), "ratio"}
}
