package freeride

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// sumSpec reduces every value of the dataset into a single cell.
func sumSpec() Spec {
	return Spec{
		Object: ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			var s float64
			for _, v := range a.Data {
				s += v
			}
			a.Accumulate(0, 0, s)
			return nil
		},
	}
}

// histSpecs returns a per-element spec and its fused (BlockReduction)
// equivalent computing the same histogram: cell (g, 0) counts rows whose
// first feature is g modulo groups, cell (g, 1) sums their second feature.
func histSpecs(groups int) (elem, fused Spec) {
	object := ObjectSpec{Groups: groups, Elems: 2, Op: robj.OpAdd}
	group := func(v float64) int {
		g := int(v) % groups
		if g < 0 {
			g += groups
		}
		return g
	}
	elem = Spec{
		Object: object,
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				g := group(row[0])
				a.Accumulate(g, 0, 1)
				a.Accumulate(g, 1, row[1])
			}
			return nil
		},
	}
	fused = Spec{
		Object: object,
		BlockReduction: func(a *BlockArgs) error {
			for i := 0; i < a.NumRows; i++ {
				row := a.Row(i)
				g := group(row[0])
				a.Accumulate(g, 0, 1)
				a.Accumulate(g, 1, row[1])
			}
			return nil
		},
	}
	return elem, fused
}

func seqSum(m *dataset.Matrix) float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

func TestRunSumMatchesSequential(t *testing.T) {
	m := dataset.UniformMatrix(10000, 4, 1, 0, 1)
	src := dataset.NewMemorySource(m)
	want := seqSum(m)
	for _, threads := range []int{1, 2, 4, 8} {
		e := New(Config{Threads: threads, SplitRows: 128})
		res, err := e.RunContext(context.Background(), sumSpec(), src)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Object.Get(0, 0)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("threads=%d: got %v want %v", threads, got, want)
		}
		if res.Stats.Threads != threads {
			t.Fatalf("stats threads = %d", res.Stats.Threads)
		}
		if res.Stats.Splits != (10000+127)/128 {
			t.Fatalf("splits = %d", res.Stats.Splits)
		}
	}
}

func TestRunAllStrategiesAndSchedulers(t *testing.T) {
	m := dataset.UniformMatrix(5000, 3, 2, -1, 1)
	src := dataset.NewMemorySource(m)
	want := seqSum(m)
	for _, st := range robj.Strategies() {
		for _, pol := range sched.Policies() {
			e := New(Config{Threads: 4, Strategy: st, Scheduler: pol, SplitRows: 100})
			res, err := e.RunContext(context.Background(), sumSpec(), src)
			if err != nil {
				t.Fatalf("%v/%v: %v", st, pol, err)
			}
			if got := res.Object.Get(0, 0); math.Abs(got-want) > 1e-6 {
				t.Fatalf("%v/%v: got %v want %v", st, pol, got, want)
			}
		}
	}
}

func TestRunFromFileSource(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.frds")
	m := dataset.UniformMatrix(2000, 6, 3, 0, 10)
	if err := dataset.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	src, err := dataset.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	e := New(Config{Threads: 4, SplitRows: 64})
	res, err := e.RunContext(context.Background(), sumSpec(), src)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Object.Get(0, 0), seqSum(m); math.Abs(got-want) > 1e-6 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestRunHistogramGroups(t *testing.T) {
	// Group instances by floor(value) into a 10-bucket histogram; checks
	// multi-group accumulation and the Begin/Row helpers.
	m := dataset.NewMatrix(1000, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % 10)
	}
	spec := Spec{
		Object: ObjectSpec{Groups: 10, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				a.Accumulate(int(a.Row(i)[0]), 0, 1)
			}
			return nil
		},
	}
	e := New(Config{Threads: 4, SplitRows: 37})
	res, err := e.RunContext(context.Background(), spec, dataset.NewMemorySource(m))
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < 10; g++ {
		if got := res.Object.Get(g, 0); got != 100 {
			t.Fatalf("bucket %d = %v, want 100", g, got)
		}
	}
}

func TestRunErrors(t *testing.T) {
	src := dataset.NewMemorySource(dataset.UniformMatrix(10, 1, 1, 0, 1))
	e := New(Config{Threads: 2})
	if _, err := e.RunContext(context.Background(), Spec{Object: ObjectSpec{Groups: 1, Elems: 1}}, src); !errors.Is(err, ErrNoReduction) {
		t.Fatalf("want ErrNoReduction, got %v", err)
	}
	if _, err := e.RunContext(context.Background(), sumSpec(), nil); err == nil {
		t.Fatal("nil source: want error")
	}
	bad := sumSpec()
	bad.Object.Groups = 0
	if _, err := e.RunContext(context.Background(), bad, src); err == nil {
		t.Fatal("bad object shape: want error")
	}
}

func TestReductionErrorPropagates(t *testing.T) {
	src := dataset.NewMemorySource(dataset.UniformMatrix(1000, 1, 1, 0, 1))
	boom := errors.New("boom")
	spec := Spec{
		Object: ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *ReductionArgs) error {
			if a.Begin > 100 {
				return boom
			}
			return nil
		},
	}
	e := New(Config{Threads: 4, SplitRows: 10})
	if _, err := e.RunContext(context.Background(), spec, src); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
}

func TestCombineAndFinalizeHooks(t *testing.T) {
	src := dataset.NewMemorySource(dataset.UniformMatrix(100, 1, 1, 1, 2))
	combined, finalized := false, false
	spec := sumSpec()
	spec.Combine = func(o *robj.Object) error {
		combined = true
		if !o.Merged() {
			t.Error("Combine should see a merged object")
		}
		return nil
	}
	spec.Finalize = func(r *Result) error {
		finalized = true
		return nil
	}
	e := New(Config{Threads: 2})
	if _, err := e.RunContext(context.Background(), spec, src); err != nil {
		t.Fatal(err)
	}
	if !combined || !finalized {
		t.Fatalf("combined=%v finalized=%v", combined, finalized)
	}
	// Hook errors propagate.
	spec.Combine = func(o *robj.Object) error { return errors.New("combine fail") }
	if _, err := e.RunContext(context.Background(), spec, src); err == nil || err.Error() != "combine fail" {
		t.Fatalf("combine error: %v", err)
	}
	spec.Combine = nil
	spec.Finalize = func(r *Result) error { return errors.New("finalize fail") }
	if _, err := e.RunContext(context.Background(), spec, src); err == nil || err.Error() != "finalize fail" {
		t.Fatalf("finalize error: %v", err)
	}
}

func TestCustomSplitterAndValidation(t *testing.T) {
	m := dataset.UniformMatrix(100, 1, 1, 0, 1)
	src := dataset.NewMemorySource(m)
	spec := sumSpec()
	// A valid custom splitter with uneven chunks.
	spec.Splitter = func(total, units int) []sched.Chunk {
		return []sched.Chunk{{Begin: 0, End: 10}, {Begin: 10, End: 95}, {Begin: 95, End: 100}}
	}
	e := New(Config{Threads: 3})
	res, err := e.RunContext(context.Background(), spec, src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Splits != 3 {
		t.Fatalf("splits = %d", res.Stats.Splits)
	}
	if got := res.Object.Get(0, 0); math.Abs(got-seqSum(m)) > 1e-9 {
		t.Fatal("custom splitter wrong sum")
	}
	// Splitters with gaps, overlaps, or wrong coverage are rejected.
	badSplitters := []func(int, int) []sched.Chunk{
		func(total, _ int) []sched.Chunk { return []sched.Chunk{{Begin: 0, End: 50}} },
		func(total, _ int) []sched.Chunk {
			return []sched.Chunk{{Begin: 0, End: 60}, {Begin: 50, End: 100}}
		},
		func(total, _ int) []sched.Chunk {
			return []sched.Chunk{{Begin: 0, End: 50}, {Begin: 60, End: 100}}
		},
		func(total, _ int) []sched.Chunk { return []sched.Chunk{{Begin: 0, End: 101}} },
	}
	for i, bad := range badSplitters {
		spec.Splitter = bad
		if _, err := e.RunContext(context.Background(), spec, src); err == nil {
			t.Fatalf("bad splitter %d accepted", i)
		}
	}
}

func TestDefaultSplitter(t *testing.T) {
	if got := DefaultSplitter(0, 4); got != nil {
		t.Fatal("empty input should produce no splits")
	}
	chunks := DefaultSplitter(10, 3)
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks, got %d", len(chunks))
	}
	if err := validateSplits(chunks, 10); err != nil {
		t.Fatal(err)
	}
	// More units than rows collapses to one chunk per row.
	chunks = DefaultSplitter(3, 10)
	if len(chunks) != 3 {
		t.Fatalf("want 3 chunks, got %d", len(chunks))
	}
	// Non-positive units defaults to 1.
	chunks = DefaultSplitter(5, 0)
	if len(chunks) != 1 || chunks[0].Len() != 5 {
		t.Fatalf("chunks = %+v", chunks)
	}
}

func TestConfigDefaults(t *testing.T) {
	e := New(Config{})
	cfg := e.Config()
	if cfg.Threads < 1 || cfg.SplitRows != 4096 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestStatsTotal(t *testing.T) {
	s := Stats{SplitTime: 1, ReduceTime: 2, CombineTime: 3, FinalizeTime: 4}
	if s.Total() != 10 {
		t.Fatalf("Total = %v", s.Total())
	}
}

// The engine's bit-identity property (the paper's core invariant, §III-A)
// has one body, checkMatchesSequentialFold: across every scheduling policy,
// sharing strategy, 1–8 threads, row count and split size, each pass form
// it is given equals the sequential fold cell for cell. Integer-valued data
// makes float addition exact, so the comparison is ==, not within-epsilon.
// Fused passes also report one block flush per split and every row as
// fused, process-wide and job-scoped; per-element passes report neither.

// TestPropertyOrderIndependence: a per-element pass on a fresh engine
// equals the sequential fold whatever the schedule and sharing strategy.
func TestPropertyOrderIndependence(t *testing.T) {
	checkMatchesSequentialFold(t, passForm{"per-element one-shot", false, 1})
}

// TestPropertySessionMatchesOneShot: a per-element pass on a warm session
// (pooled scheduler, split table, object and split handles) equals the
// sequential fold, as the one-shot pass does.
func TestPropertySessionMatchesOneShot(t *testing.T) {
	checkMatchesSequentialFold(t,
		passForm{"per-element one-shot", false, 1},
		passForm{"per-element warm session", false, 3})
}

// TestPropertyFusedMatchesPerElement: a fused pass on a warm session equals
// the sequential fold, as the per-element pass does.
func TestPropertyFusedMatchesPerElement(t *testing.T) {
	checkMatchesSequentialFold(t,
		passForm{"per-element one-shot", false, 1},
		passForm{"fused warm session", true, 3})
}

// passForm is one way of running the histogram: the per-element or fused
// kernel, for passes passes on one fresh session (the last is checked).
type passForm struct {
	name   string
	fused  bool
	passes int
}

func checkMatchesSequentialFold(t *testing.T, forms ...passForm) {
	t.Helper()
	const groups = 5
	policies, strategies := sched.Policies(), robj.Strategies()
	prop := func(seed int64, rowsRaw uint16, threadsRaw, splitRaw, polRaw, stRaw uint8) bool {
		rows := int(rowsRaw%2000) + 1
		cfg := Config{
			Threads:   int(threadsRaw%8) + 1,
			SplitRows: int(splitRaw%200) + 1,
			Scheduler: policies[int(polRaw)%len(policies)],
			Strategy:  strategies[int(stRaw)%len(strategies)],
		}
		rng := rand.New(rand.NewSource(seed))
		m := dataset.NewMatrix(rows, 2)
		for i := range m.Data {
			m.Data[i] = float64(rng.Intn(1000))
		}
		want := make([]float64, groups*2)
		for i := 0; i < rows; i++ {
			g := int(m.Data[2*i]) % groups
			want[2*g]++
			want[2*g+1] += m.Data[2*i+1]
		}
		src := dataset.NewMemorySource(m)
		elem, fused := histSpecs(groups)

		// run makes n passes of spec on one fresh session and returns the
		// last pass's cells and stats.
		run := func(spec Spec, n int) ([]float64, Stats, error) {
			eng := New(cfg)
			defer eng.Close()
			var res *Result
			for i := 0; i < n; i++ {
				if err := eng.Release(res); err != nil {
					return nil, Stats{}, err
				}
				var err error
				if res, err = eng.RunContext(context.Background(), spec, src); err != nil {
					return nil, Stats{}, err
				}
			}
			return res.Object.Snapshot(), res.Stats, nil
		}
		flushesBefore := obs.Default.Value("freeride_block_flushes_total")
		rowsFusedBefore := obs.Default.Value("freeride_rows_fused_total")
		wantRowsFused := int64(0)
		for _, c := range forms {
			spec := elem
			if c.fused {
				spec, wantRowsFused = fused, wantRowsFused+int64(c.passes*rows)
			}
			got, st, err := run(spec, c.passes)
			if err != nil {
				t.Logf("%s: %v", c.name, err)
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					t.Logf("%s: cell %d = %v, sequential fold %v (%+v, %d rows)", c.name, i, got[i], want[i], cfg, rows)
					return false
				}
			}
			deltas := map[string]int64{}
			for _, d := range st.JobDeltas {
				deltas[d.Key()] = d.Value
			}
			wantFlushes, wantFused := int64(0), int64(0)
			if c.fused {
				wantFlushes, wantFused = int64(st.Splits), int64(rows)
			}
			if deltas["freeride_block_flushes_total"] != wantFlushes || deltas["freeride_rows_fused_total"] != wantFused {
				t.Logf("%s: job flushes/fused rows = %d/%d, want %d/%d", c.name,
					deltas["freeride_block_flushes_total"], deltas["freeride_rows_fused_total"], wantFlushes, wantFused)
				return false
			}
		}
		if got := obs.Default.Value("freeride_block_flushes_total") - flushesBefore; (got > 0) != (wantRowsFused > 0) {
			t.Logf("passes moved freeride_block_flushes_total by %d (fused rows %d)", got, wantRowsFused)
			return false
		}
		if got := obs.Default.Value("freeride_rows_fused_total") - rowsFusedBefore; got != wantRowsFused {
			t.Logf("freeride_rows_fused_total delta = %d, want %d", got, wantRowsFused)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}
