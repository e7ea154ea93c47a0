// Benchmarks regenerating the paper's evaluation (one benchmark per figure,
// at reduced dataset sizes suitable for `go test -bench`) plus
// microbenchmarks for the mechanisms behind them: linearization, the
// mapping algorithm, reduction-object strategies, schedulers, and the boxed
// versus linearized access gap. For the full-size parameter sweeps and the
// printed series matching each figure, use cmd/freeride-bench.
package chapelfreeride

import (
	"context"
	"fmt"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// benchThreads is the worker count for the application benchmarks.
const benchThreads = 4

// kmeansBenchData builds a deterministic point set and initial centroids.
func kmeansBenchData(n, dim, k int) (*dataset.Matrix, *dataset.Matrix) {
	points, _ := dataset.GaussianMixture(n, dim, k, 42)
	init := dataset.NewMatrix(k, dim)
	copy(init.Data, points.Data[:k*dim])
	return points, init
}

// benchKMeans runs one k-means version for b.N iterations of the workload.
// Boxing the dataset into Chapel values is test setup (the data is "born"
// in Chapel), so it happens outside the timer; everything the paper
// measures — linearization included — is inside.
func benchKMeans(b *testing.B, v apps.Version, n, k, iters int) {
	b.Helper()
	points, init := kmeansBenchData(n, 10, k)
	cfg := apps.KMeansConfig{
		K: k, Iterations: iters,
		Engine: freeride.Config{Threads: benchThreads, SplitRows: n / 32},
	}
	run := func() error { _, err := apps.KMeansManualFR(points, init, cfg); return err }
	switch v {
	case apps.Generated, apps.Opt1, apps.Opt2, apps.Opt3:
		boxed := apps.BoxPoints(points)
		opt := core.OptNone
		if v == apps.Opt1 {
			opt = core.Opt1
		} else if v == apps.Opt2 {
			opt = core.Opt2
		} else if v == apps.Opt3 {
			opt = core.Opt3
		}
		run = func() error { _, err := apps.KMeansTranslated(boxed, init, opt, cfg); return err }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 9: k-means on the small dataset, k=100, i=10 (reduced to 8k points
// and i=2 for bench time); the four versions the figure compares.
func BenchmarkFig9KMeansSmallGenerated(b *testing.B) { benchKMeans(b, apps.Generated, 8000, 100, 2) }
func BenchmarkFig9KMeansSmallOpt1(b *testing.B)      { benchKMeans(b, apps.Opt1, 8000, 100, 2) }
func BenchmarkFig9KMeansSmallOpt2(b *testing.B)      { benchKMeans(b, apps.Opt2, 8000, 100, 2) }
func BenchmarkFig9KMeansSmallManualFR(b *testing.B)  { benchKMeans(b, apps.ManualFR, 8000, 100, 2) }

// Figure 10: k-means on the large dataset, k=10, i=10 (reduced).
func BenchmarkFig10KMeansLargeK10Generated(b *testing.B) {
	benchKMeans(b, apps.Generated, 60000, 10, 2)
}
func BenchmarkFig10KMeansLargeK10Opt1(b *testing.B)     { benchKMeans(b, apps.Opt1, 60000, 10, 2) }
func BenchmarkFig10KMeansLargeK10Opt2(b *testing.B)     { benchKMeans(b, apps.Opt2, 60000, 10, 2) }
func BenchmarkFig10KMeansLargeK10ManualFR(b *testing.B) { benchKMeans(b, apps.ManualFR, 60000, 10, 2) }

// Figure 11: k-means, k=100 with a single iteration — the configuration
// where the one-time linearization cost is proportionally largest.
func BenchmarkFig11KMeansLargeK100I1Generated(b *testing.B) {
	benchKMeans(b, apps.Generated, 30000, 100, 1)
}
func BenchmarkFig11KMeansLargeK100I1Opt1(b *testing.B) { benchKMeans(b, apps.Opt1, 30000, 100, 1) }
func BenchmarkFig11KMeansLargeK100I1Opt2(b *testing.B) { benchKMeans(b, apps.Opt2, 30000, 100, 1) }
func BenchmarkFig11KMeansLargeK100I1Opt3(b *testing.B) { benchKMeans(b, apps.Opt3, 30000, 100, 1) }
func BenchmarkFig11KMeansLargeK100I1ManualFR(b *testing.B) {
	benchKMeans(b, apps.ManualFR, 30000, 100, 1)
}

// benchPCA runs one PCA version. As with benchKMeans, boxing is setup.
func benchPCA(b *testing.B, v apps.Version, elems, dims int) {
	b.Helper()
	data := dataset.UniformMatrix(elems, dims, 7, -5, 5)
	cfg := apps.PCAConfig{Engine: freeride.Config{Threads: benchThreads, SplitRows: elems / 32}}
	run := func() error { _, err := apps.PCAManualFR(data, cfg); return err }
	if v == apps.Opt2 {
		boxed := apps.BoxMatrix(data)
		run = func() error { _, err := apps.PCATranslated(boxed, core.Opt2, cfg); return err }
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 12: PCA small (1000 dims × 10,000 elements; reduced to 48×2000).
func BenchmarkFig12PCASmallOpt2(b *testing.B)     { benchPCA(b, apps.Opt2, 2000, 48) }
func BenchmarkFig12PCASmallManualFR(b *testing.B) { benchPCA(b, apps.ManualFR, 2000, 48) }

// Figure 13: PCA large (1000 dims × 100,000 elements; reduced to 48×8000).
func BenchmarkFig13PCALargeOpt2(b *testing.B)     { benchPCA(b, apps.Opt2, 8000, 48) }
func BenchmarkFig13PCALargeManualFR(b *testing.B) { benchPCA(b, apps.ManualFR, 8000, 48) }

// ABL-ROBJ: reduction-object sharing strategies under a write-heavy
// histogram (every element accumulates once).
func BenchmarkAblationRObjStrategies(b *testing.B) {
	m := dataset.NewMatrix(100000, 1)
	for i := range m.Data {
		m.Data[i] = float64(i % 64)
	}
	src := dataset.NewMemorySource(m)
	for _, st := range robj.Strategies() {
		b.Run(st.String(), func(b *testing.B) {
			eng := freeride.New(freeride.Config{Threads: benchThreads, Strategy: st, SplitRows: 4096})
			spec := freeride.Spec{
				Object: freeride.ObjectSpec{Groups: 64, Elems: 1, Op: robj.OpAdd},
				Reduction: func(a *freeride.ReductionArgs) error {
					for i := 0; i < a.NumRows; i++ {
						a.Accumulate(int(a.Row(i)[0]), 0, 1)
					}
					return nil
				},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunContext(context.Background(), spec, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ABL-SCHED: split scheduling policies on a sum reduction.
func BenchmarkAblationSchedulers(b *testing.B) {
	m := dataset.UniformMatrix(200000, 4, 3, 0, 1)
	src := dataset.NewMemorySource(m)
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			var s float64
			for _, v := range a.Data {
				s += v
			}
			a.Accumulate(0, 0, s)
			return nil
		},
	}
	for _, pol := range sched.Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			eng := freeride.New(freeride.Config{Threads: benchThreads, Scheduler: pol, SplitRows: 2048})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.RunContext(context.Background(), spec, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ABL-PIPE: sequential vs parallel linearization (the paper's future work).
func BenchmarkAblationPipelinedLinearization(b *testing.B) {
	points, _ := dataset.GaussianMixture(50000, 10, 8, 5)
	boxed := apps.BoxPoints(points)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.SetBytes(points.SizeBytes())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LinearizeToWordsParallel(boxed, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ABL-MR: FREERIDE versus Map-Reduce on the same k-means iteration.
func BenchmarkAblationFreerideVsMapReduce(b *testing.B) {
	points, init := kmeansBenchData(30000, 10, 16)
	cases := []struct {
		name string
		run  func(points, init *dataset.Matrix, cfg apps.KMeansConfig) (*apps.KMeansResult, error)
		comb bool
	}{
		{"freeride", apps.KMeansManualFR, false},
		{"mapreduce", apps.KMeansMapReduce, false},
		{"mapreduce-combiner", apps.KMeansMapReduce, true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := apps.KMeansConfig{
				K: 16, Iterations: 1,
				Engine:      freeride.Config{Threads: benchThreads, SplitRows: 1024},
				UseCombiner: c.comb,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.run(points, init, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ABL-CHUNK: split-size sensitivity.
func BenchmarkAblationChunkSize(b *testing.B) {
	points, init := kmeansBenchData(50000, 10, 16)
	for _, splitRows := range []int{64, 512, 4096, 16384} {
		b.Run(fmt.Sprintf("split-%d", splitRows), func(b *testing.B) {
			cfg := apps.KMeansConfig{
				K: 16, Iterations: 1,
				Engine: freeride.Config{Threads: benchThreads, SplitRows: splitRows},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := apps.KMeansManualFR(points, init, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Microbenchmark: ComputeIndex (Algorithm 3) per access versus the
// strength-reduced base+stride walk — the essence of opt-1.
func BenchmarkMicroComputeIndexVsStride(b *testing.B) {
	pt := chapel.RecordType("Point",
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, 16)})
	ty := chapel.ArrayType(pt, 1, 1024)
	data := chapel.NewArray(ty)
	words, err := core.LinearizeToWords(data)
	if err != nil {
		b.Fatal(err)
	}
	meta, err := core.MetaFor(ty, "coords")
	if err != nil {
		b.Fatal(err)
	}
	wmeta, err := meta.Words()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("computeIndex-per-access", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			for row := 1; row <= 1024; row++ {
				for k := 1; k <= 16; k++ {
					sum += words[wmeta.ComputeIndex(row, k)]
				}
			}
		}
		_ = sum
	})
	b.Run("strength-reduced", func(b *testing.B) {
		var sum float64
		stride := wmeta.Stride()
		for i := 0; i < b.N; i++ {
			for row := 1; row <= 1024; row++ {
				base := wmeta.BaseIndex(row)
				for k := 0; k < 16; k++ {
					sum += words[base+k*stride]
				}
			}
		}
		_ = sum
	})
}

// Microbenchmark: boxed Chapel structure access versus linearized access —
// the essence of opt-2 (§V's overhead source 3).
func BenchmarkMicroBoxedVsLinearizedAccess(b *testing.B) {
	const k, dim = 64, 16
	cents := chapel.NewArray(chapel.ArrayType(chapel.RecordType("Point",
		chapel.Field{Name: "coords", Type: chapel.ArrayType(chapel.RealType(), 1, dim)}), 1, k))
	boxed, err := core.NewBoxedStateVec(cents, []string{"coords"})
	if err != nil {
		b.Fatal(err)
	}
	lin, err := core.NewWordStateVec(cents, []string{"coords"})
	if err != nil {
		b.Fatal(err)
	}
	scratch := make([]float64, dim)
	b.Run("boxed", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			for c := 1; c <= k; c++ {
				row := boxed.Row(c, scratch)
				for j := 0; j < dim; j++ {
					sum += row[j]
				}
			}
		}
		_ = sum
	})
	b.Run("linearized", func(b *testing.B) {
		var sum float64
		for i := 0; i < b.N; i++ {
			for c := 1; c <= k; c++ {
				row := lin.Row(c, scratch)
				for j := 0; j < dim; j++ {
					sum += row[j]
				}
			}
		}
		_ = sum
	})
}

// Microbenchmark: the Chapel global-view Reduce versus the FREERIDE engine
// on the same sum — the cost of boxed values end to end.
func BenchmarkMicroChapelReduceVsFreeride(b *testing.B) {
	const n = 100000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 97)
	}
	boxed := chapel.RealArray(vals...)
	m := dataset.NewMatrix(n, 1)
	copy(m.Data, vals)
	b.Run("chapel-native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chapel.Reduce(chapel.NewSumOp(), chapel.Over(boxed), benchThreads)
		}
	})
	b.Run("freeride", func(b *testing.B) {
		eng := freeride.New(freeride.Config{Threads: benchThreads, SplitRows: 4096})
		spec := freeride.Spec{
			Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
			Reduction: func(a *freeride.ReductionArgs) error {
				var s float64
				for _, v := range a.Data {
					s += v
				}
				a.Accumulate(0, 0, s)
				return nil
			},
		}
		src := dataset.NewMemorySource(m)
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunContext(context.Background(), spec, src); err != nil {
				b.Fatal(err)
			}
		}
	})
}
