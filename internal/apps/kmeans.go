package apps

import (
	"context"
	"fmt"
	"math"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/mapreduce"
	"chapelfreeride/internal/robj"
)

// KMeansConfig parameterizes a k-means run: k centroids, i iterations —
// the two "key factors that impact the computations" (§V-A).
type KMeansConfig struct {
	// K is the number of clusters.
	K int
	// Iterations is the number of scan-and-update passes.
	Iterations int
	// Engine configures the FREERIDE engine (threads, strategy, ...).
	Engine freeride.Config
	// Tasks is the task count for the ChapelNative version (defaults to
	// Engine.Threads).
	Tasks int
	// UseCombiner enables the Map-Reduce combiner for the MapReduce
	// version.
	UseCombiner bool
}

func (c KMeansConfig) validate() error {
	if c.K < 1 {
		return fmt.Errorf("apps: k-means needs K >= 1, got %d", c.K)
	}
	if c.Iterations < 1 {
		return fmt.Errorf("apps: k-means needs Iterations >= 1, got %d", c.Iterations)
	}
	return nil
}

// KMeansResult is the output of one k-means run.
type KMeansResult struct {
	// Centroids is the final K×dim centroid matrix.
	Centroids *dataset.Matrix
	// Counts is the number of points assigned to each cluster in the last
	// iteration.
	Counts []float64
	// Timing is the phase breakdown.
	Timing Timing
}

// nearest returns the index of the centroid closest to point (squared
// Euclidean distance; ties resolve to the lowest index). cents is flat
// k×dim. Every version funnels its distance logic through the same
// tie-breaking rule so results are comparable bit for bit.
//
// Centroids go four at a time through one walk over the point, each with
// its own accumulator summed in the same j order as the one-centroid loop
// that takes the k mod 4 tail, and the four distances are compared in
// centroid order with the same strict <: the result is the one-centroid
// loop's, bit for bit (TestNearestMatchesNaive, FuzzNearest). Neither inner
// loop has a bounds check (TestNearestNoBoundsChecks).
func nearest(point []float64, cents []float64, k, dim int) int {
	best, bestDist := 0, math.Inf(1)
	c := 0
	for ; c+4 <= k; c += 4 {
		c0 := cents[c*dim : (c+1)*dim]
		c1 := cents[(c+1)*dim : (c+2)*dim]
		c2 := cents[(c+2)*dim : (c+3)*dim]
		c3 := cents[(c+3)*dim : (c+4)*dim]
		pt := point[:len(c0)]
		var d0, d1, d2, d3 float64
		for j, x := range c0 {
			p := pt[j]
			e0, e1, e2, e3 := p-x, p-c1[j], p-c2[j], p-c3[j]
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		if d0 < bestDist {
			best, bestDist = c, d0
		}
		if d1 < bestDist {
			best, bestDist = c+1, d1
		}
		if d2 < bestDist {
			best, bestDist = c+2, d2
		}
		if d3 < bestDist {
			best, bestDist = c+3, d3
		}
	}
	for ; c < k; c++ {
		var d float64
		cc := cents[c*dim : (c+1)*dim]
		pt := point[:len(cc)] // one check here, none in the loop
		for j, x := range cc {
			diff := pt[j] - x
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// updateCentroids derives the next centroid matrix from per-cluster
// coordinate sums and counts (robj layout: k groups × dim+1 elems, the last
// element the count). Empty clusters keep their previous centroid, and the
// per-cluster counts are returned.
func updateCentroids(snapshot []float64, prev *dataset.Matrix, k, dim int) (*dataset.Matrix, []float64) {
	next, counts := dataset.NewMatrix(k, dim), make([]float64, k)
	updateCentroidsInto(next, counts, snapshot, prev, k, dim)
	return next, counts
}

// updateCentroidsInto is updateCentroids writing into caller-owned next and
// counts, every cell of which it overwrites; next must not be prev.
func updateCentroidsInto(next *dataset.Matrix, counts, snapshot []float64, prev *dataset.Matrix, k, dim int) {
	for c := 0; c < k; c++ {
		cells := snapshot[c*(dim+1) : (c+1)*(dim+1)]
		counts[c] = cells[dim]
		if counts[c] == 0 {
			copy(next.Row(c), prev.Row(c))
			continue
		}
		for j := 0; j < dim; j++ {
			next.Set(c, j, cells[j]/counts[c])
		}
	}
}

// KMeansSeq is the sequential reference implementation.
func KMeansSeq(points, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, points.Cols
	cents := init.Clone()
	var counts []float64
	var timing Timing
	for it := 0; it < cfg.Iterations; it++ {
		t0 := time.Now()
		sums := make([]float64, k*(dim+1))
		for i := 0; i < points.Rows; i++ {
			row := points.Row(i)
			c := nearest(row, cents.Data, k, dim)
			for j := 0; j < dim; j++ {
				sums[c*(dim+1)+j] += row[j]
			}
			sums[c*(dim+1)+dim]++
		}
		timing.Reduce += time.Since(t0)
		t0 = time.Now()
		cents, counts = updateCentroids(sums, cents, k, dim)
		timing.Update += time.Since(t0)
	}
	return &KMeansResult{Centroids: cents, Counts: counts, Timing: timing}, nil
}

// kmeansOp is the paper's Fig. 3 reduction class on the pure Chapel
// runtime: RO holds per-cluster sums and counts, accumulate assigns one
// point to its nearest centroid, combine merges two partial objects.
type kmeansOp struct {
	k, dim    int
	centroids *chapel.Array // boxed [1..k] Point — read-only during a pass
	ro        []float64     // k × (dim+1)
}

func newKMeansOp(k, dim int, centroids *chapel.Array) *kmeansOp {
	return &kmeansOp{k: k, dim: dim, centroids: centroids, ro: make([]float64, k*(dim+1))}
}

// Clone implements chapel.ReduceScanOp.
func (o *kmeansOp) Clone() chapel.ReduceScanOp { return newKMeansOp(o.k, o.dim, o.centroids) }

// Accumulate implements chapel.ReduceScanOp over one boxed Point.
func (o *kmeansOp) Accumulate(x chapel.Value) {
	coords := x.(*chapel.Record).Field("coords").(*chapel.Array)
	best, bestDist := 0, math.Inf(1)
	for c := 1; c <= o.k; c++ {
		cc := o.centroids.At(c).(*chapel.Record).Field("coords").(*chapel.Array)
		var d float64
		for j := 1; j <= o.dim; j++ {
			diff := coords.At(j).(*chapel.Real).Val - cc.At(j).(*chapel.Real).Val
			d += diff * diff
		}
		if d < bestDist {
			best, bestDist = c-1, d
		}
	}
	for j := 1; j <= o.dim; j++ {
		o.ro[best*(o.dim+1)+j-1] += coords.At(j).(*chapel.Real).Val
	}
	o.ro[best*(o.dim+1)+o.dim]++
}

// Combine implements chapel.ReduceScanOp.
func (o *kmeansOp) Combine(other chapel.ReduceScanOp) {
	x := other.(*kmeansOp)
	for i := range o.ro {
		o.ro[i] += x.ro[i]
	}
}

// Generate implements chapel.ReduceScanOp, returning the reduction object
// as a boxed [1..k*(dim+1)] real array.
func (o *kmeansOp) Generate() chapel.Value { return chapel.RealArray(o.ro...) }

// KMeansChapelNative runs k-means entirely on the Chapel runtime analog —
// boxed data, boxed centroids, global-view Reduce — demonstrating that
// Chapel's reduction support expresses the algorithm (the paper's question
// I) without any FREERIDE involvement.
func KMeansChapelNative(boxedPoints *chapel.Array, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, init.Cols
	tasks := cfg.Tasks
	if tasks < 1 {
		tasks = cfg.Engine.Threads
	}
	cents := init.Clone()
	boxedCents := BoxPoints(cents)
	var counts []float64
	var timing Timing
	expr := chapel.Over(boxedPoints)
	for it := 0; it < cfg.Iterations; it++ {
		t0 := time.Now()
		out := chapel.Reduce(newKMeansOp(k, dim, boxedCents), expr, tasks).(*chapel.Array)
		timing.Reduce += time.Since(t0)
		t0 = time.Now()
		sums := make([]float64, k*(dim+1))
		for i := range sums {
			sums[i] = out.At(i + 1).(*chapel.Real).Val
		}
		cents, counts = updateCentroids(sums, cents, k, dim)
		boxedCents = BoxPoints(cents)
		timing.Update += time.Since(t0)
	}
	return &KMeansResult{Centroids: cents, Counts: counts, Timing: timing}, nil
}

// KMeansClass builds the translator input for k-means — the declarative
// form of Fig. 3's reduction class, shared by the three translated
// versions. centroids is the boxed hot variable the kernel reads for every
// point (the structure opt-2 linearizes). It is never inlined: inlined into
// KMeansTranslated, its kernel closures would be cloned there, and the
// clones call their accessors out of line.
//
//go:noinline
func KMeansClass(k, dim int, centroids *chapel.Array) *core.ReductionClass {
	return &core.ReductionClass{
		Name:   "kmeans",
		Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
		Path:   []string{"coords"},
		HotVars: []core.HotVar{
			{Value: centroids, Path: []string{"coords"}},
		},
		Kernel: func(elem *core.Vec, hot []*core.StateVec, args *freeride.ReductionArgs) {
			pt := elem.Row(args.Scratch(0, dim))
			cents, ok := hot[0].Dense()
			if !ok {
				// No dense view — boxed centroids (generated/opt-1) or padded
				// rows: resolve every centroid row for this point.
				cents = gatherRows(hot[0], args.Scratch(2, k*dim), args.Scratch(1, dim))
			}
			// With linearized centroids (opt-2) this is the same call manual
			// FREERIDE makes.
			best := nearest(pt, cents, k, dim)
			args.AccumulateRange(best, 0, pt)
			args.Accumulate(best, dim, 1)
		},
		// The opt-3 fused body: one call per split, walking the linearized
		// words and the dense centroid block directly — no Vec branch, no
		// interface dispatch, no lock per point. The same nearest call as
		// every other version (bit-identical on integer data), with
		// accumulation into the worker-local buffer.
		BlockKernel: func(args *freeride.BlockArgs, view core.BlockView, hot []*core.StateVec) error {
			cents, ok := hot[0].Dense()
			if !ok {
				// Non-dense hot layout: materialize a flat k×dim copy once
				// per split (never hit for kmeans' contiguous centroids).
				cents = gatherRows(hot[0], args.Scratch(2, k*dim), args.Scratch(1, dim))
			}
			acc := args.Acc()
			base := view.RowStride*args.Begin + view.RunOff
			for i := 0; i < args.NumRows; i++ {
				pt := view.Words[base : base+dim]
				best := nearest(pt, cents, k, dim)
				out := acc[best*(dim+1) : best*(dim+1)+dim+1]
				for j := 0; j < dim; j++ {
					out[j] += pt[j]
				}
				out[dim]++
				base += view.RowStride
			}
			return nil
		},
	}
}

// KMeansTranslated runs k-means through the Chapel→FREERIDE translation at
// the given optimization level. boxedPoints is the Chapel-side dataset
// (BoxPoints); its linearization cost is reported in Timing.Linearize.
func KMeansTranslated(boxedPoints *chapel.Array, init *dataset.Matrix, opt core.OptLevel, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, init.Cols
	cents := init.Clone()
	boxedCents := BoxPoints(cents)

	tr, err := core.Translate(KMeansClass(k, dim, boxedCents), boxedPoints, opt)
	if err != nil {
		return nil, err
	}
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	src := tr.Source()

	var counts []float64
	var timing Timing
	timing.Linearize = tr.LinearizeTime
	err = runSessionLoop(context.Background(), eng, src, &timing, loopSpec{
		Iterations: cfg.Iterations,
		Spec:       func(int) freeride.Spec { return tr.Spec() },
		Fold: func(_ int, obj *robj.Object) error {
			cents, counts = updateCentroids(obj.Snapshot(), cents, k, dim)
			// Write the new centroids back into the boxed hot variable so
			// Post can re-linearize it for opt-2.
			for c := 0; c < k; c++ {
				coords := boxedCents.At(c + 1).(*chapel.Record).Field("coords").(*chapel.Array)
				for j := 0; j < dim; j++ {
					coords.SetAt(j+1, &chapel.Real{Val: cents.At(c, j)})
				}
			}
			return nil
		},
		Post: func(int) error {
			hotBefore := tr.HotLinearizeTime
			tr.RefreshHotVars()
			timing.HotVar += tr.HotLinearizeTime - hotBefore
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &KMeansResult{Centroids: cents, Counts: counts, Timing: timing}, nil
}

// KMeansManualFR is the paper's "manual FR" version: k-means written by
// hand against the FREERIDE API, with flat float data throughout — no
// Chapel structures and no translation layer.
func KMeansManualFR(points, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	return KMeansSession(context.Background(), eng, dataset.NewMemorySource(points), init, cfg)
}

// KMeansSession runs manual FREERIDE k-means from the K×dim centroids init
// on a caller-owned engine session; cfg.Engine is not read, and ctx cancels
// the passes.
func KMeansSession(ctx context.Context, eng *freeride.Engine, src dataset.Source, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if err := checkSource("k-means", src); err != nil {
		return nil, err
	}
	k, dim := cfg.K, src.Cols()
	cents := init.Clone()

	var counts []float64
	var timing Timing
	err := runSessionLoop(ctx, eng, src, &timing, loopSpec{
		Iterations: cfg.Iterations,
		Spec: func(int) freeride.Spec {
			flat := cents.Data
			return freeride.Spec{
				Object: freeride.ObjectSpec{Groups: k, Elems: dim + 1, Op: robj.OpAdd},
				Reduction: func(args *freeride.ReductionArgs) error {
					for i := 0; i < args.NumRows; i++ {
						row := args.Row(i)
						c := nearest(row, flat, k, dim)
						args.AccumulateRange(c, 0, row)
						args.Accumulate(c, dim, 1)
					}
					return nil
				},
			}
		},
		Fold: func(_ int, obj *robj.Object) error {
			cents, counts = updateCentroids(obj.Snapshot(), cents, k, dim)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &KMeansResult{Centroids: cents, Counts: counts, Timing: timing}, nil
}

// KMeansMapReduce is the Map-Reduce baseline (Fig. 4, right): map emits one
// (cluster, partial-vector) pair per point, pairs are sorted and grouped,
// and reduce folds each cluster's vectors. With cfg.UseCombiner the
// per-worker combiner pre-folds pairs, shrinking the intermediate state the
// FREERIDE design avoids entirely.
func KMeansMapReduce(points, init *dataset.Matrix, cfg KMeansConfig) (*KMeansResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k, dim := cfg.K, points.Cols
	cents := init.Clone()
	eng := mapreduce.New[int, []float64](mapreduce.Config{
		Workers:   cfg.Engine.Threads,
		SplitRows: cfg.Engine.SplitRows,
	})
	sumVecs := func(_ int, vals [][]float64) []float64 {
		out := make([]float64, dim+1)
		for _, v := range vals {
			for j := range out {
				out[j] += v[j]
			}
		}
		return out
	}
	var counts []float64
	var timing Timing
	for it := 0; it < cfg.Iterations; it++ {
		flat := cents.Data
		spec := mapreduce.Spec[int, []float64]{
			Map: func(a *mapreduce.MapArgs, emit func(int, []float64)) error {
				for i := 0; i < a.NumRows; i++ {
					row := a.Row(i)
					c := nearest(row, flat, k, dim)
					v := make([]float64, dim+1)
					copy(v, row)
					v[dim] = 1
					emit(c, v)
				}
				return nil
			},
			Reduce: sumVecs,
		}
		if cfg.UseCombiner {
			spec.Combine = sumVecs
		}
		t0 := time.Now()
		out, _, err := eng.Run(spec, dataset.NewMemorySource(points))
		if err != nil {
			return nil, err
		}
		timing.Reduce += time.Since(t0)
		t0 = time.Now()
		sums := make([]float64, k*(dim+1))
		for c, v := range out {
			copy(sums[c*(dim+1):(c+1)*(dim+1)], v)
		}
		cents, counts = updateCentroids(sums, cents, k, dim)
		timing.Update += time.Since(t0)
	}
	return &KMeansResult{Centroids: cents, Counts: counts, Timing: timing}, nil
}
