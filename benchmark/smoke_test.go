package main

import (
	"math"
	"sort"
	"testing"
)

// smokeConfig is every workload at a hundredth of its size with two jobs:
// enough to keep the benchmark compiling and its result checks passing under
// plain `go test ./...`. The numbers it produces are not comparable with a
// benchmark run and are not looked at.
func smokeConfig(workload string, trace bool) runConfig {
	return runConfig{workload: workload, seed: 1, scale: 0.01, jobs: 2, trace: trace}
}

func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: run reports %d metrics %v, BENCHMARK.json lists %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: run reports %q where BENCHMARK.json lists %q", what, got[i], want[i])
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bf.EndToEnd {
		want = append(want, m.Name)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := runWorkload(smokeConfig(w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Attempted < 1 {
				t.Fatalf("not comparable smoke run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			sameNames(t, "end_to_end", metricNames(rep.Metrics), want)
			for name, m := range rep.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v: an end-to-end metric is a positive finite number", name, m.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced form of two workloads, one batch and the
// concurrent one, with the layer suite at a hundredth of its fixture sizes.
func TestSmokeTraced(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, m := range bf.PerLayer {
		want = append(want, m.Name)
	}
	for _, name := range []string{"kmeans_translated", "serve_mixed"} {
		t.Run(name, func(t *testing.T) {
			rep, err := runWorkload(smokeConfig(name, true))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("%d of %d operations failed", rep.Failed, rep.Attempted)
			}
			sameNames(t, "per_layer", metricNames(rep.Metrics), want)
			if c := rep.Metrics["trace.coverage"].Value; !(c > 0 && c <= 1) {
				t.Errorf("trace.coverage = %v, want a share in (0, 1]", c)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its argument")
	}
}

// TestSelfTimes pins the definition of self time: a span's duration minus
// the union of its children's intervals, so two concurrent children are not
// subtracted twice.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: rootLayer, Start: 0, End: 10},
		{ID: 1, Parent: 0, Layer: "serve", Start: 1, End: 6},
		{ID: 2, Parent: 0, Layer: "serve", Start: 4, End: 9},
		{ID: 3, Parent: 1, Layer: "client", Start: 2, End: 3},
	}}
	self := tr.selfTimes()
	for layer, want := range map[string]float64{rootLayer: 2, "serve": 9, "client": 1} {
		if math.Abs(self[layer]-want) > 1e-12 {
			t.Errorf("self time of %s = %v, want %v", layer, self[layer], want)
		}
	}
}
