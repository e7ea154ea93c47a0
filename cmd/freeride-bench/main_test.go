package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"chapelfreeride/internal/apps"
)

// tinyParams runs a figure on a small dataset over at most two threads,
// never more than the host's cores.
func tinyParams() params {
	threads, _ := parseThreads("", min(2, runtime.NumCPU()))
	return params{threads: threads, scale: 0.0005, seed: 7, reps: 1}
}

func TestRegistryContents(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit %d: %s", code, errOut.String())
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	if got, want := strings.Join(ids, " "), "fig4 fig9 fig10 fig11 fig12 fig13"; got != want {
		t.Fatalf("-list ids = %q, want %q", got, want)
	}
	if _, ok := lookup("fig9"); !ok {
		t.Fatal("lookup(fig9) failed")
	}
	if _, ok := lookup("nope"); ok {
		t.Fatal("lookup(nope) should fail")
	}
}

// TestAllExperimentsRunTiny executes every figure at a tiny scale — an
// integration test across apps, core, freeride and mapreduce.
func TestAllExperimentsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, f := range figures {
		t.Run(f.id, func(t *testing.T) {
			tbl, err := f.run(tinyParams())
			if err != nil {
				t.Fatal(err)
			}
			if tbl.id != f.id {
				t.Fatalf("table id %q != figure id %q", tbl.id, f.id)
			}
			if len(tbl.rows) == 0 || len(tbl.columns) == 0 {
				t.Fatal("empty table")
			}
			for _, r := range tbl.rows {
				if len(r) != len(tbl.columns) {
					t.Fatalf("row width %d != %d columns: %v", len(r), len(tbl.columns), r)
				}
			}
			var sb strings.Builder
			tbl.fprint(&sb)
			out := sb.String()
			if !strings.Contains(out, f.id) || !strings.Contains(out, tbl.columns[0]) {
				t.Fatalf("printed table missing header:\n%s", out)
			}
			if want := fmt.Sprintf("(NumCPU %d)", runtime.NumCPU()); !strings.Contains(out, want) {
				t.Fatalf("title does not name the core count %q:\n%s", want, out)
			}
		})
	}
}

// TestFig4IntermediatePairs pins fig4's volume columns: FREERIDE emits no
// pairs, plain Map-Reduce sorts one pair per point, and the combiner keeps
// every point's emit but sorts at most k pairs per worker.
func TestFig4IntermediatePairs(t *testing.T) {
	p := tinyParams()
	tbl, err := fig4(p)
	if err != nil {
		t.Fatal(err)
	}
	points := kmeansData(64<<20, p.scale, p.seed, fig4K+1).Rows
	if len(tbl.rows) != 3*len(p.threads) {
		t.Fatalf("%d rows, want 3 per thread count", len(tbl.rows))
	}
	emittedCol := slices.Index(tbl.columns, "emitted pairs/iter")
	sortedCol := slices.Index(tbl.columns, "sorted pairs/iter")
	for _, r := range tbl.rows {
		var threads, emitted, sorted int
		fmt.Sscan(r[0], &threads)
		fmt.Sscan(r[emittedCol], &emitted)
		fmt.Sscan(r[sortedCol], &sorted)
		switch r[1] {
		case "freeride (manual)":
			if emitted != 0 || sorted != 0 {
				t.Fatalf("freeride row reports pairs: %v", r)
			}
		case "map-reduce":
			if emitted != points || sorted != points {
				t.Fatalf("map-reduce row %v, want %d emitted and sorted", r, points)
			}
		case "map-reduce+combiner":
			if emitted != points || sorted < 1 || sorted > fig4K*threads {
				t.Fatalf("combiner row %v, want %d emitted and 1..%d sorted", r, points, fig4K*threads)
			}
		default:
			t.Fatalf("unexpected runtime %q", r[1])
		}
	}
}

// TestThreadsAboveNumCPURejected: a sweep that would time-slice workers on
// shared cores is a usage error, not a row.
func TestThreadsAboveNumCPURejected(t *testing.T) {
	ncpu := runtime.NumCPU()
	var out, errOut strings.Builder
	code := run([]string{"-exp", "fig4", "-threads", fmt.Sprint(ncpu + 1)}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), fmt.Sprintf("NumCPU %d", ncpu)) {
		t.Fatalf("message does not name NumCPU: %q", errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("printed a table before refusing: %q", out.String())
	}
	if code := run([]string{"-exp", "fig99"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown figure: exit %d, want 2", code)
	}
}

func TestParseThreads(t *testing.T) {
	for _, c := range []struct {
		in   string
		ncpu int
		want string
	}{
		{"", 1, "[1]"},
		{"", 2, "[1 2]"},
		{"", 6, "[1 2 4]"},
		{"", 8, "[1 2 4 8]"},
		{"1, 3", 4, "[1 3]"},
	} {
		got, err := parseThreads(c.in, c.ncpu)
		if err != nil || fmt.Sprint(got) != c.want {
			t.Fatalf("parseThreads(%q, %d) = %v, %v; want %s", c.in, c.ncpu, got, err, c.want)
		}
	}
	for _, bad := range []string{"0", "x", "1,,2", "5"} {
		if _, err := parseThreads(bad, 4); err == nil {
			t.Fatalf("parseThreads(%q, 4) accepted", bad)
		}
	}
}

func TestHelpers(t *testing.T) {
	if secs(1500000000) != "1.500" {
		t.Fatalf("secs = %q", secs(1500000000))
	}
	if ratio(2, 0) != "n/a" {
		t.Fatal("ratio division by zero")
	}
	if ratio(3, 2) != "1.50" {
		t.Fatalf("ratio = %q", ratio(3, 2))
	}
	if pct(1, 0) != "n/a" || pct(1, 4) != "25%" {
		t.Fatal("pct")
	}
}

// TestVersusMarksUnresolved: -reps keeps every run; a row reports the
// fastest and the median, and a ratio of medians is marked unresolved when
// a side's spread is wider than the difference.
func TestVersusMarksUnresolved(t *testing.T) {
	runsOf := func(ms ...int) runs {
		r, err := measure(len(ms), func() (apps.Timing, error) {
			d := time.Duration(ms[0]) * time.Millisecond
			ms = ms[1:]
			return apps.Timing{Reduce: d}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	noisy, steady := runsOf(150, 100, 110), runsOf(100, 105, 101)
	if noisy.fastest().Total() != 100*time.Millisecond || noisy.median() != 110*time.Millisecond {
		t.Fatalf("fastest %v, median %v; want 100ms, 110ms", noisy.fastest().Total(), noisy.median())
	}
	if got := versus(noisy, steady); got != "1.09 (unresolved)" {
		t.Fatalf("versus(noisy, steady) = %q: a 50 ms spread hides a 9 ms difference", got)
	}
	if got := versus(runsOf(200, 202), steady); got != "1.99" {
		t.Fatalf("versus = %q: a 2 ms spread resolves a 100 ms difference", got)
	}
	if got := versus(runsOf(120), runsOf(100)); got != "1.20" {
		t.Fatalf("versus of single runs = %q: one run has no spread", got)
	}
}
