package chapelfreeride

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/cluster"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// TestPipelineChapelSourceToCluster drives the longest path through the
// system: Chapel source text → parsed types → boxed values → translation
// (opt-2) → FREERIDE spec → simulated cluster with TCP global combination →
// de-linearized comparison against a sequential reference.
func TestPipelineChapelSourceToCluster(t *testing.T) {
	decls, err := chapel.ParseDecls(`
record Point { coords: [1..4] real; }
var points: [1..300] Point;
`)
	if err != nil {
		t.Fatal(err)
	}
	ty, err := decls.Var("points")
	if err != nil {
		t.Fatal(err)
	}

	// Fill boxed data deterministically and compute the reference column
	// sums sequentially.
	const n, dim = 300, 4
	boxed := chapel.NewArray(ty)
	want := make([]float64, dim)
	for i := 1; i <= n; i++ {
		coords := boxed.At(i).(*chapel.Record).Field("coords").(*chapel.Array)
		for j := 1; j <= dim; j++ {
			v := float64((i*31 + j*7) % 100)
			coords.SetAt(j, &chapel.Real{Val: v})
			want[j-1] += v
		}
	}

	// Translate at opt-2 and run across 3 simulated TCP nodes.
	cls := &core.ReductionClass{
		Name:   "column-sums",
		Object: freeride.ObjectSpec{Groups: 1, Elems: dim, Op: robj.OpAdd},
		Path:   []string{"coords"},
		Kernel: func(elem *core.Vec, _ []*core.StateVec, args *freeride.ReductionArgs) {
			row := elem.Row(args.Scratch(0, dim))
			for j := 0; j < dim; j++ {
				args.Accumulate(0, j, row[j])
			}
		},
	}
	tr, err := core.Translate(cls, boxed, core.Opt2)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(cluster.Config{
		Nodes:     3,
		PerNode:   freeride.Config{Threads: 2, SplitRows: 16},
		Transport: cluster.TCP,
		Combine:   cluster.Tree,
	})
	res, err := cl.RunContext(context.Background(), tr.Spec(), tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < dim; j++ {
		if got := res.Object.Get(0, j); got != want[j] {
			t.Fatalf("column %d: got %v, want %v", j, got, want[j])
		}
	}
	if res.Stats.BytesMoved == 0 {
		t.Fatal("TCP combination should have moved bytes")
	}

	// Round-trip the linearized dataset back to boxed values.
	back := chapel.NewArray(ty)
	if err := core.WordsBack(tr.Words(), back); err != nil {
		t.Fatal(err)
	}
	if !chapel.DeepEqual(boxed, back) {
		t.Fatal("write-back of linearized dataset diverged")
	}
}

// TestPipelineDiskToKMeans runs k-means from an on-disk dataset through
// positional reads, comparing the FREERIDE result with the sequential
// reference — the deployment shape FREERIDE was built for (data on disk,
// runtime-managed reads).
func TestPipelineDiskToKMeans(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "points.frds")
	points, _ := dataset.GaussianMixture(3000, 6, 5, 77)
	// Integer-valued points keep the comparison exact.
	for i := range points.Data {
		points.Data[i] = math.Round(points.Data[i] * 8)
	}
	if err := dataset.WriteFile(path, points); err != nil {
		t.Fatal(err)
	}
	fs, err := dataset.OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	init := dataset.NewMatrix(5, 6)
	copy(init.Data, points.Data[:30])
	cfg := apps.KMeansConfig{K: 5, Iterations: 3, Engine: freeride.Config{Threads: 3, SplitRows: 128}}
	ref, err := apps.KMeansSeq(points, init, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Manual FREERIDE k-means over the disk-backed source.
	k, dim := 5, 6
	cents := init.Clone()
	eng := freeride.New(cfg.Engine)
	for it := 0; it < cfg.Iterations; it++ {
		flat := cents.Data
		spec := freeride.Spec{
			Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
			Reduction: func(args *freeride.ReductionArgs) error {
				for i := 0; i < args.NumRows; i++ {
					row := args.Row(i)
					best, bestDist := 0, math.Inf(1)
					for c := 0; c < k; c++ {
						var d float64
						for j := 0; j < dim; j++ {
							diff := row[j] - flat[c*dim+j]
							d += diff * diff
						}
						if d < bestDist {
							best, bestDist = c, d
						}
					}
					for j := 0; j < dim; j++ {
						args.Accumulate(best, j, row[j])
					}
					args.Accumulate(best, dim, 1)
				}
				return nil
			},
		}
		res, err := eng.RunContext(context.Background(), spec, fs)
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Object.Snapshot()
		next := dataset.NewMatrix(k, dim)
		for c := 0; c < k; c++ {
			cnt := snap[c*(dim+1)+dim]
			if cnt == 0 {
				copy(next.Row(c), cents.Row(c))
				continue
			}
			for j := 0; j < dim; j++ {
				next.Set(c, j, snap[c*(dim+1)+j]/cnt)
			}
		}
		cents = next
	}
	if !cents.Equal(ref.Centroids) {
		t.Fatal("disk-backed k-means diverged from the in-memory reference")
	}
}
