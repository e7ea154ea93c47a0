package apps

import (
	"context"
	"fmt"
	"math"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// NaiveBayes trains a discretized naive Bayes classifier. Training is a
// single generalized reduction over the labelled examples: the reduction
// object holds, per class, the example count and the per-(feature, bin)
// occurrence counts — a large, purely additive table, the shape FREERIDE's
// reduction object handles natively. Prediction applies the trained counts
// with Laplace smoothing.

// NaiveBayesConfig parameterizes training.
type NaiveBayesConfig struct {
	// Classes is the number of class labels (labels are 0..Classes-1 in
	// the last column of the training matrix).
	Classes int
	// Bins discretizes each feature into equal-width bins over [Lo, Hi).
	Bins   int
	Lo, Hi float64
	// Engine configures the FREERIDE engine.
	Engine freeride.Config
}

func (c NaiveBayesConfig) validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("apps: naive bayes needs Classes >= 2, got %d", c.Classes)
	}
	if c.Bins < 1 {
		return fmt.Errorf("apps: naive bayes needs Bins >= 1, got %d", c.Bins)
	}
	if !(c.Hi > c.Lo) {
		return fmt.Errorf("apps: naive bayes needs Hi > Lo")
	}
	return nil
}

// bin discretizes a value, clamping out-of-range to the edge bins.
func (c NaiveBayesConfig) bin(v float64) int {
	b := int(math.Floor((v - c.Lo) / (c.Hi - c.Lo) * float64(c.Bins)))
	if b < 0 {
		return 0
	}
	if b >= c.Bins {
		return c.Bins - 1
	}
	return b
}

// NaiveBayesModel is the trained classifier.
type NaiveBayesModel struct {
	cfg NaiveBayesConfig
	dim int
	// classCounts[c] = training examples with class c.
	classCounts []float64
	// featureCounts[c][f*Bins+b] = examples of class c with feature f in
	// bin b.
	featureCounts [][]float64
	// Timing is the training-phase breakdown.
	Timing Timing
}

// Predict returns the most probable class for the feature vector, using
// log-space scoring with Laplace smoothing; ties resolve to the lowest
// class id.
func (m *NaiveBayesModel) Predict(features []float64) int {
	best, bestScore := 0, math.Inf(-1)
	var total float64
	for _, n := range m.classCounts {
		total += n
	}
	for c := 0; c < m.cfg.Classes; c++ {
		nc := m.classCounts[c]
		score := math.Log((nc + 1) / (total + float64(m.cfg.Classes)))
		for f := 0; f < m.dim; f++ {
			b := m.cfg.bin(features[f])
			score += math.Log((m.featureCounts[c][f*m.cfg.Bins+b] + 1) / (nc + float64(m.cfg.Bins)))
		}
		if score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// buildModel assembles a model from the flat reduction-object layout:
// per class, cell 0 is the class count and cells 1..dim*Bins are the
// feature-bin counts.
func buildModel(cfg NaiveBayesConfig, dim int, cells []float64, timing Timing) *NaiveBayesModel {
	stride := 1 + dim*cfg.Bins
	m := &NaiveBayesModel{
		cfg: cfg, dim: dim,
		classCounts:   make([]float64, cfg.Classes),
		featureCounts: make([][]float64, cfg.Classes),
		Timing:        timing,
	}
	for c := 0; c < cfg.Classes; c++ {
		m.classCounts[c] = cells[c*stride]
		m.featureCounts[c] = append([]float64(nil), cells[c*stride+1:(c+1)*stride]...)
	}
	return m
}

// NaiveBayesTrainSeq is the sequential reference trainer. train has the
// label in the last column.
func NaiveBayesTrainSeq(train *dataset.Matrix, cfg NaiveBayesConfig) (*NaiveBayesModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dim := train.Cols - 1
	if dim < 1 {
		return nil, fmt.Errorf("apps: naive bayes needs at least one feature column")
	}
	t0 := time.Now()
	stride := 1 + dim*cfg.Bins
	cells := make([]float64, cfg.Classes*stride)
	for i := 0; i < train.Rows; i++ {
		row := train.Row(i)
		c := int(row[dim])
		if c < 0 || c >= cfg.Classes {
			return nil, fmt.Errorf("apps: label %v out of range at row %d", row[dim], i)
		}
		cells[c*stride]++
		for f := 0; f < dim; f++ {
			cells[c*stride+1+f*cfg.Bins+cfg.bin(row[f])]++
		}
	}
	return buildModel(cfg, dim, cells, Timing{Reduce: time.Since(t0)}), nil
}

// NaiveBayesTrainFR trains under FREERIDE: one reduction pass whose object
// is the count table.
func NaiveBayesTrainFR(train *dataset.Matrix, cfg NaiveBayesConfig) (*NaiveBayesModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dim := train.Cols - 1
	if dim < 1 {
		return nil, fmt.Errorf("apps: naive bayes needs at least one feature column")
	}
	stride := 1 + dim*cfg.Bins
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: cfg.Classes, Elems: stride, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			for i := 0; i < args.NumRows; i++ {
				row := args.Row(i)
				c := int(row[dim])
				if c < 0 || c >= cfg.Classes {
					return fmt.Errorf("apps: label %v out of range at row %d", row[dim], args.Begin+i)
				}
				args.Accumulate(c, 0, 1)
				for f := 0; f < dim; f++ {
					args.Accumulate(c, 1+f*cfg.Bins+cfg.bin(row[f]), 1)
				}
			}
			return nil
		},
	}
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	var timing Timing
	t0 := time.Now()
	res, err := eng.RunContext(context.Background(), spec, dataset.NewMemorySource(train))
	if err != nil {
		return nil, err
	}
	timing.Reduce = time.Since(t0)
	return buildModel(cfg, dim, res.Object.Snapshot(), timing), nil
}

// NaiveBayesAccuracy scores a model over a labelled test set, returning the
// fraction of correct predictions.
func NaiveBayesAccuracy(m *NaiveBayesModel, test *dataset.Matrix) float64 {
	if test.Rows == 0 {
		return 0
	}
	dim := test.Cols - 1
	correct := 0
	for i := 0; i < test.Rows; i++ {
		row := test.Row(i)
		if m.Predict(row[:dim]) == int(row[dim]) {
			correct++
		}
	}
	return float64(correct) / float64(test.Rows)
}
