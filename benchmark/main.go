// Command benchmark is the repository's benchmark: one workload per process,
// every metric printed by name with its unit, every result checked.
//
//	bash benchmark/run.sh -workload kmeans_translated -seed 1 -seconds 12 -trace 0
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) prints the per-layer ones. The last line of standard output is
// one JSON object: correct, attempted, failed, metrics. README.md in this
// directory defines the workloads and metrics; BENCHMARK.json at the root of
// the repository lists them with their regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (see -list)")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "with -trace 1, write the recorded spans to this file as JSON")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrink every input size (smoke test; results not comparable)")
	flag.IntVar(&cfg.jobs, "jobs", 0, "run exactly this many jobs instead of a timed window (results not comparable)")
	list := flag.Bool("list", false, "list the workloads and exit")
	agree := flag.Bool("agree", false, "run every workload twice, alternating order, and compare each metric against its bound")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice with one seed and require identical counts")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	switch {
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-18s %s\n", w.name, w.why)
		}
	case *agree:
		err = agreeMode(cfg)
	case *selfcheck:
		err = selfcheckMode(cfg)
	default:
		err = runAndPrint(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runAndPrint runs one workload and prints the host facts, every metric with
// its unit, and the result object as the last line. A failed result check is
// a non-zero exit after the result is printed.
func runAndPrint(cfg runConfig) error {
	rep, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("workload=%s seed=%d trace=%v nproc=%d GOMAXPROCS=%d go=%s commit=%s\n",
		cfg.workload, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	if !cfg.comparable() {
		fmt.Println("not comparable: run with -scale or -jobs")
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("operations: attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.Failed > 0 {
		return fmt.Errorf("%d of %d operations failed their result check", rep.Failed, rep.Attempted)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout without git metadata records none).
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
