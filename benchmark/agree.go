package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"strings"
)

// The two self-tests of the benchmark. Both run every workload in a fresh
// child process of this same binary, one workload per process, as the
// measuring runs do.

// benchmarkFile is the part of BENCHMARK.json the self-tests read: the
// end-to-end metrics with the bound each may worsen by.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json in the working directory (a run from
// the root of the repository) or its parent (a run or test from benchmark/).
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		b, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// child runs this binary once with args and returns its standard output.
func child(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("%s %s: %w", exe, strings.Join(args, " "), err)
	}
	return out, nil
}

func childReport(cfg runConfig, workload string) (report, error) {
	out, err := child("-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-trace", "0")
	if err != nil {
		return report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	err = json.Unmarshal(lines[len(lines)-1], &rep)
	return rep, err
}

// agreeMode runs the full set twice, the second time in reverse order, and
// compares every workload × end-to-end metric of the two with the metric's
// bound. It compares single runs, which is stricter than the medians of ten
// the bounds are meant for: a pass here means the benchmark can tell a
// regression of that size from its own noise.
func agreeMode(cfg runConfig) error {
	bf, err := readBenchmarkFile()
	if err != nil {
		return err
	}
	first := map[string]report{}
	second := map[string]report{}
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "agree: first set, %s\n", w.name)
		if first[w.name], err = childReport(cfg, w.name); err != nil {
			return err
		}
	}
	for i := len(workloads) - 1; i >= 0; i-- {
		name := workloads[i].name
		fmt.Fprintf(os.Stderr, "agree: second set, %s\n", name)
		if second[name], err = childReport(cfg, name); err != nil {
			return err
		}
	}

	exceeded := 0
	fmt.Printf("%-18s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		if !a.Correct || !b.Correct {
			return fmt.Errorf("%s: a run failed its result checks", w.name)
		}
		for _, m := range bf.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / math.Min(va, vb)
			mark := ""
			if diff > m.Bound {
				mark = "  EXCEEDS"
				exceeded++
			}
			fmt.Printf("%-18s %-18s %14.6g %14.6g %9.4f %7.2f%s\n", w.name, m.Name, va, vb, diff, m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d workload × metric pairs differ by more than their bound", exceeded)
	}
	return nil
}

// selfcheckMode runs every workload twice with one seed and a fixed job
// count and requires the counts that must repeat exactly — rows scanned,
// passes, chunks, block and scatter flushes, index-table bytes, requests per
// kernel — to be identical: the program saw the same inputs and did the same
// work both times.
func selfcheckMode(cfg runConfig) error {
	counts := func(workload string) (string, error) {
		out, err := child("-workload", workload, "-seed", fmt.Sprint(cfg.seed), "-jobs", "2", "-scale", fmt.Sprint(cfg.scale), "-trace", "0")
		if err != nil {
			return "", err
		}
		for _, line := range strings.Split(string(out), "\n") {
			if strings.HasPrefix(line, "counts:") {
				return line, nil
			}
		}
		return "", fmt.Errorf("%s printed no counts line", workload)
	}
	bad := 0
	for _, w := range workloads {
		a, err := counts(w.name)
		if err != nil {
			return err
		}
		b, err := counts(w.name)
		if err != nil {
			return err
		}
		if a == b {
			fmt.Printf("%-18s identical  %s\n", w.name, a)
		} else {
			bad++
			fmt.Printf("%-18s DIFFER\n  %s\n  %s\n", w.name, a, b)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads did different work on two runs with seed %d", bad, cfg.seed)
	}
	return nil
}
