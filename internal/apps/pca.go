package apps

import (
	"context"
	"fmt"
	"time"

	"chapelfreeride/internal/chapel"
	"chapelfreeride/internal/core"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// PCA computes the two reduction phases of Principal Component Analysis as
// the paper describes (§V): "calculating the mean vector and computing the
// covariance matrix". The dataset is a matrix whose rows are data elements
// and whose columns are features; the paper stores it transposed ("the
// number of rows denotes the dimensionality, the number of columns the
// number of data elements"), which only renames the axes.
//
// PCA "is a compute-intensive application and does not use complex or
// nested data structures in Chapel" — the boxed form is a plain
// [1..n][1..dim] real array-of-arrays — so the paper compares only opt-2
// and manual FR; this package additionally provides the generated and
// opt-1 forms, which confirm the paper's claim that their benefit is small
// here.

// PCAConfig parameterizes a PCA run.
type PCAConfig struct {
	// Engine configures the FREERIDE engine.
	Engine freeride.Config
}

// PCAResult holds the two reduction outputs.
type PCAResult struct {
	// Mean is the length-dim mean vector (phase 1).
	Mean []float64
	// Cov is the dim×dim covariance matrix (phase 2), normalized by n-1.
	Cov *dataset.Matrix
	// Timing is the phase breakdown.
	Timing Timing
}

// covNormalize converts accumulated outer-product sums into the sample
// covariance (divide by n-1; degenerate n<=1 leaves sums untouched).
func covNormalize(cov *dataset.Matrix, n int) {
	if n <= 1 {
		return
	}
	inv := 1 / float64(n-1)
	for i := range cov.Data {
		cov.Data[i] *= inv
	}
}

// PCASeq is the sequential reference implementation.
func PCASeq(data *dataset.Matrix) (*PCAResult, error) {
	n, dim := data.Rows, data.Cols
	if n == 0 || dim == 0 {
		return nil, fmt.Errorf("apps: PCA needs a non-empty matrix, got %dx%d", n, dim)
	}
	var timing Timing
	t0 := time.Now()
	mean := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := 0; j < dim; j++ {
			mean[j] += row[j]
		}
	}
	for j := 0; j < dim; j++ {
		mean[j] /= float64(n)
	}
	cov := dataset.NewMatrix(dim, dim)
	centered := make([]float64, dim)
	for i := 0; i < n; i++ {
		row := data.Row(i)
		for j := 0; j < dim; j++ {
			centered[j] = row[j] - mean[j]
		}
		for a := 0; a < dim; a++ {
			ca := centered[a]
			out := cov.Row(a)
			for b := 0; b < dim; b++ {
				out[b] += ca * centered[b]
			}
		}
	}
	covNormalize(cov, n)
	timing.Reduce = time.Since(t0)
	return &PCAResult{Mean: mean, Cov: cov, Timing: timing}, nil
}

// PCAMeanClass is the translator input for phase 1: sum every feature of
// every element into a 1×dim reduction object.
func PCAMeanClass(dim int) *core.ReductionClass {
	return &core.ReductionClass{
		Name:   "pca-mean",
		Object: freeride.ObjectSpec{Groups: 1, Elems: dim, Op: robj.OpAdd},
		Kernel: func(elem *core.Vec, _ []*core.StateVec, args *freeride.ReductionArgs) {
			args.AccumulateRange(0, 0, elem.Row(args.Scratch(0, dim)))
		},
		// Opt-3 fused body: sum the whole split's rows straight off the
		// linearized words into the worker-local buffer.
		BlockKernel: func(args *freeride.BlockArgs, view core.BlockView, _ []*core.StateVec) error {
			acc := args.Acc()
			base := view.RowStride*args.Begin + view.RunOff
			for i := 0; i < args.NumRows; i++ {
				row := view.Words[base : base+dim]
				for j := 0; j < dim; j++ {
					acc[j] += row[j]
				}
				base += view.RowStride
			}
			return nil
		},
	}
}

// PCACovClass is the translator input for phase 2: accumulate the centered
// outer product of every element into a dim×dim reduction object. The mean
// vector is the phase's frequently-accessed hot variable.
//
// It is kept out of line: inlined into PCATranslated, its kernel closures
// are cloned there and the clones call Scratch, Row and Accumulate out of
// line (Go 1.24), which cost opt-2 ~15 % against manual FREERIDE.
//
//go:noinline
func PCACovClass(dim int, mean *chapel.Array) *core.ReductionClass {
	return &core.ReductionClass{
		Name:   "pca-cov",
		Object: freeride.ObjectSpec{Groups: dim, Elems: dim, Op: robj.OpAdd},
		HotVars: []core.HotVar{
			{Value: mean},
		},
		Kernel: func(elem *core.Vec, hot []*core.StateVec, args *freeride.ReductionArgs) {
			// The mean vector is a 1×dim hot variable; one Row call per
			// element materializes it (zero-copy in opt-2). The row is
			// centered once, as in PCASession.
			row := elem.Row(args.Scratch(0, dim))
			mv := hot[0].Row(1, args.Scratch(1, dim))
			centered := args.Scratch(2, dim)
			for j := 0; j < dim; j++ {
				centered[j] = row[j] - mv[j]
			}
			prod := args.Scratch(3, dim)
			for a := 0; a < dim; a++ {
				ca := centered[a]
				for b := 0; b < dim; b++ {
					prod[b] = ca * centered[b]
				}
				args.AccumulateRange(a, 0, prod)
			}
		},
		// Opt-3 fused body: center each row once into scratch, then rank-one
		// update the worker-local dim×dim buffer with plain slice arithmetic —
		// the per-element kernel's float ops, so results stay bit-identical.
		BlockKernel: func(args *freeride.BlockArgs, view core.BlockView, hot []*core.StateVec) error {
			mv, ok := hot[0].Dense()
			if !ok {
				mv = hot[0].Row(1, args.Scratch(1, dim))
			}
			acc := args.Acc()
			centered := args.Scratch(0, dim)
			base := view.RowStride*args.Begin + view.RunOff
			for i := 0; i < args.NumRows; i++ {
				row := view.Words[base : base+dim]
				for j := 0; j < dim; j++ {
					centered[j] = row[j] - mv[j]
				}
				for a := 0; a < dim; a++ {
					ca := centered[a]
					out := acc[a*dim : a*dim+dim]
					for b := 0; b < dim; b++ {
						out[b] += ca * centered[b]
					}
				}
				base += view.RowStride
			}
			return nil
		},
	}
}

// PCATranslated runs both PCA reduction phases through the
// Chapel→FREERIDE translation at the given optimization level. boxedData
// is the Chapel-side [1..n][1..dim] real dataset (BoxMatrix).
func PCATranslated(boxedData *chapel.Array, opt core.OptLevel, cfg PCAConfig) (*PCAResult, error) {
	n := boxedData.Len()
	if n == 0 {
		return nil, fmt.Errorf("apps: PCA needs a non-empty dataset")
	}
	dim := boxedData.At(boxedData.Ty.Lo).(*chapel.Array).Len()
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	var timing Timing

	// Phase 1 translates the dataset once; phase 2 reuses its linearized
	// words (same dataset), so no second input linearization is charged. The
	// two phases run as one two-iteration session loop: iteration 0 is the
	// mean, its Post builds the covariance spec with the mean vector as hot
	// variable, iteration 1 is the covariance.
	tr1, err := core.Translate(PCAMeanClass(dim), boxedData, opt)
	if err != nil {
		return nil, err
	}
	timing.Linearize += tr1.LinearizeTime
	var (
		mean  []float64
		cov   *dataset.Matrix
		spec2 freeride.Spec
	)
	err = runSessionLoop(context.Background(), eng, tr1.Source(), &timing, loopSpec{
		Iterations: 2,
		Spec: func(it int) freeride.Spec {
			if it == 0 {
				return tr1.Spec()
			}
			return spec2
		},
		Fold: func(it int, obj *robj.Object) error {
			if it == 0 {
				mean = make([]float64, dim)
				for j := 0; j < dim; j++ {
					mean[j] = obj.Get(0, j) / float64(n)
				}
				return nil
			}
			cov = dataset.NewMatrix(dim, dim)
			copy(cov.Data, obj.Snapshot())
			covNormalize(cov, n)
			return nil
		},
		Post: func(it int) error {
			if it != 0 {
				return nil
			}
			boxedMean := BoxVector(mean)
			cls2 := PCACovClass(dim, boxedMean)
			var hot []*core.StateVec
			t0 := time.Now()
			switch opt {
			case core.Opt2, core.Opt3:
				sv, err := core.NewWordStateVec(boxedMean, nil)
				if err != nil {
					return err
				}
				hot = []*core.StateVec{sv}
			default:
				sv, err := core.NewBoxedStateVec(boxedMean, nil)
				if err != nil {
					return err
				}
				hot = []*core.StateVec{sv}
			}
			timing.HotVar += time.Since(t0)
			spec2 = core.SpecFromWords(cls2, tr1.Words(), tr1.Meta(), hot, opt)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &PCAResult{Mean: mean, Cov: cov, Timing: timing}, nil
}

// PCAManualFR is the hand-written FREERIDE version: both phases on flat
// float rows.
func PCAManualFR(data *dataset.Matrix, cfg PCAConfig) (*PCAResult, error) {
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	return PCASession(context.Background(), eng, dataset.NewMemorySource(data))
}

// PCASession runs manual FREERIDE PCA on a caller-owned engine session; ctx
// cancels the passes. Both phases share the session: iteration 0 sums
// features for the mean, iteration 1 accumulates the centered outer
// products, each row centered once into scratch.
func PCASession(ctx context.Context, eng *freeride.Engine, src dataset.Source) (*PCAResult, error) {
	if err := checkSource("PCA", src); err != nil {
		return nil, err
	}
	n, dim := src.NumRows(), src.Cols()
	var (
		mean   []float64
		cov    *dataset.Matrix
		timing Timing
	)
	err := runSessionLoop(ctx, eng, src, &timing, loopSpec{
		Iterations: 2,
		Spec: func(it int) freeride.Spec {
			if it == 0 {
				return freeride.Spec{
					Object: freeride.ObjectSpec{Groups: 1, Elems: dim, Op: robj.OpAdd},
					Reduction: func(args *freeride.ReductionArgs) error {
						for i := 0; i < args.NumRows; i++ {
							args.AccumulateRange(0, 0, args.Row(i))
						}
						return nil
					},
				}
			}
			return freeride.Spec{
				Object: freeride.ObjectSpec{Groups: dim, Elems: dim, Op: robj.OpAdd},
				Reduction: func(args *freeride.ReductionArgs) error {
					centered := args.Scratch(0, dim)
					prod := args.Scratch(1, dim)
					for i := 0; i < args.NumRows; i++ {
						row := args.Row(i)
						for j := 0; j < dim; j++ {
							centered[j] = row[j] - mean[j]
						}
						for a := 0; a < dim; a++ {
							ca := centered[a]
							for b := 0; b < dim; b++ {
								prod[b] = ca * centered[b]
							}
							args.AccumulateRange(a, 0, prod)
						}
					}
					return nil
				},
			}
		},
		Fold: func(it int, obj *robj.Object) error {
			if it == 0 {
				mean = make([]float64, dim)
				for j := 0; j < dim; j++ {
					mean[j] = obj.Get(0, j) / float64(n)
				}
				return nil
			}
			cov = dataset.NewMatrix(dim, dim)
			copy(cov.Data, obj.Snapshot())
			covNormalize(cov, n)
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return &PCAResult{Mean: mean, Cov: cov, Timing: timing}, nil
}
