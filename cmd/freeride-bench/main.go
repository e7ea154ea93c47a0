// Command freeride-bench regenerates the paper's evaluation figures as
// printed tables: Figure 4's FREERIDE vs Map-Reduce structures, and
// Figures 9-13's generated / opt-1 / opt-2 / manual FREERIDE versions of
// k-means and PCA across a thread sweep.
//
// Usage:
//
//	freeride-bench -list
//	freeride-bench -exp fig9                 # one figure, default scale
//	freeride-bench -exp fig9 -scale 1        # paper-sized dataset
//	freeride-bench -exp all -reps 3          # every figure, min and median of 3 runs
//	freeride-bench -exp fig4,fig9 -threads 1
//
// Every cell is wall time measured on real cores. With -reps N each
// measurement runs N times: a row prints the fastest and the median total,
// the phase columns come from the fastest run, and a ratio of medians is
// marked "(unresolved)" when either side's spread (slowest minus fastest)
// is wider than the difference it reports. The default thread sweep
// is the powers of two up to runtime.NumCPU(), a -threads value above
// NumCPU is refused (exit 2), and every table title names the core count
// it was measured on.
//
// Scale 1 reproduces the paper's dataset sizes (12 MB / 1.2 GB k-means
// inputs, 1000×10,000 / 1000×100,000 PCA matrices); the per-figure
// defaults keep a full sweep around a minute while preserving the workload
// shape. Absolute times differ from the paper's 2007-era Xeon; the shape —
// version ordering, optimization factors, scaling trends — is what the
// tables' notes check. Performance claims about this repository are made
// with the benchmark in benchmark/ (see BENCHMARK.json), not with this
// command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
)

// params control one figure's run.
type params struct {
	threads []int   // thread sweep, each at most runtime.NumCPU()
	scale   float64 // dataset size relative to the paper's
	seed    int64   // synthetic dataset seed
	reps    int     // repetitions per measurement: min and median printed
}

// figure is one reproducible paper figure.
type figure struct {
	id, paper, title string
	scale            float64 // default dataset scale
	run              func(params) (*table, error)
}

// figures lists every figure the command reproduces, in -list order.
var figures = []figure{
	{"fig4", "Figure 4", "FREERIDE vs Map-Reduce structures — k-means runtime and intermediate pairs", 0.01, fig4},
	{"fig9", "Figure 9", "k-means, small dataset (12 MB), k=100, i=10 — four versions", 0.1,
		kmeansFigure("fig9", "k-means small", 12<<20, 100, 10)},
	{"fig10", "Figure 10", "k-means, large dataset (1.2 GB), k=10, i=10 — four versions", 0.005,
		kmeansFigure("fig10", "k-means large", 1288490188, 10, 10)},
	{"fig11", "Figure 11", "k-means, large dataset (1.2 GB), k=100, i=1 — linearization-dominated", 0.005,
		kmeansFigure("fig11", "k-means large single-pass", 1288490188, 100, 1)},
	{"fig12", "Figure 12", "PCA, 1000 dims × 10,000 elements — opt-2 vs manual FR", 0.001,
		pcaFigure("fig12", "PCA small", 1000, 10000)},
	{"fig13", "Figure 13", "PCA, 1000 dims × 100,000 elements — opt-2 vs manual FR", 0.001,
		pcaFigure("fig13", "PCA large", 1000, 100000)},
}

// table is a figure's printable result.
type table struct {
	id, title string
	columns   []string
	rows      [][]string
	notes     []string // derived observations (ratios, shape checks)
}

// fprint renders the table with aligned columns under a title naming the
// host's core count.
func (t *table) fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s (NumCPU %d) ==\n", t.id, t.title, runtime.NumCPU())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.columns, "\t"))
	for _, r := range t.rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command body; it returns the process exit code (2 for usage
// errors, 1 for a failed figure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("freeride-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag     = fs.String("exp", "all", "comma-separated figure ids (see -list), or 'all'")
		listFlag    = fs.Bool("list", false, "list the figures and exit")
		scaleFlag   = fs.Float64("scale", 0, "dataset scale relative to the paper's size (0 = per-figure default)")
		threadsFlag = fs.String("threads", "", "comma-separated thread sweep, each at most NumCPU (default: powers of two up to NumCPU)")
		seedFlag    = fs.Int64("seed", 42, "dataset generation seed")
		repsFlag    = fs.Int("reps", 1, "repetitions per measurement (min and median printed; a ratio whose spread is wider than its difference is marked unresolved)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listFlag {
		for _, f := range figures {
			fmt.Fprintf(stdout, "%-6s %-10s %s (default scale %g)\n", f.id, f.paper, f.title, f.scale)
		}
		return 0
	}

	threads, err := parseThreads(*threadsFlag, runtime.NumCPU())
	if err != nil {
		fmt.Fprintln(stderr, "freeride-bench:", err)
		return 2
	}
	selected := figures
	if *expFlag != "all" {
		selected = nil
		for _, id := range strings.Split(*expFlag, ",") {
			f, ok := lookup(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(stderr, "freeride-bench: unknown figure %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, f)
		}
	}

	for _, f := range selected {
		p := params{threads: threads, scale: *scaleFlag, seed: *seedFlag, reps: max(*repsFlag, 1)}
		if p.scale <= 0 {
			p.scale = f.scale
		}
		tbl, err := f.run(p)
		if err != nil {
			fmt.Fprintf(stderr, "freeride-bench: %s: %v\n", f.id, err)
			return 1
		}
		tbl.fprint(stdout)
	}
	return 0
}

// lookup finds a figure by id.
func lookup(id string) (figure, bool) {
	for _, f := range figures {
		if f.id == id {
			return f, true
		}
	}
	return figure{}, false
}

// parseThreads parses the -threads sweep. Empty means the powers of two up
// to ncpu; a count above ncpu is an error, because a worker without its own
// core measures time-slicing, not scaling.
func parseThreads(s string, ncpu int) ([]int, error) {
	if s == "" {
		var out []int
		for n := 1; n <= ncpu; n *= 2 {
			out = append(out, n)
		}
		return out, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		if n > ncpu {
			return nil, fmt.Errorf("-threads %d exceeds NumCPU %d: every row is measured on real cores, one worker per core", n, ncpu)
		}
		out = append(out, n)
	}
	return out, nil
}
