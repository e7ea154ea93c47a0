package apps

import (
	"context"
	"fmt"
	"sort"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/mapreduce"
	"chapelfreeride/internal/robj"
)

// Apriori mines frequent itemsets (sizes 1 and 2) from a transaction
// database — the application family the original FREERIDE middleware was
// built around (association-rule mining). Each pass over the transactions
// is a generalized reduction whose reduction object is the candidate
// support table: pass 1 counts item supports; candidates for pass 2 are
// all pairs of frequent items; pass 2 counts pair supports.
//
// Transactions are fixed-width rows of item ids in [0, NumItems), padded
// with -1 — FREERIDE's flat 2-D input view applied to market-basket data.

// AprioriConfig parameterizes a mining run.
type AprioriConfig struct {
	// NumItems is the item universe size.
	NumItems int
	// MinSupport is the absolute support threshold (transaction count).
	MinSupport int
	// Engine configures the FREERIDE engine (and sizes Map-Reduce).
	Engine freeride.Config
}

func (c AprioriConfig) validate() error {
	if c.NumItems < 1 {
		return fmt.Errorf("apps: apriori needs NumItems >= 1, got %d", c.NumItems)
	}
	if c.MinSupport < 1 {
		return fmt.Errorf("apps: apriori needs MinSupport >= 1, got %d", c.MinSupport)
	}
	return nil
}

// Itemset is a frequent itemset with its support count.
type Itemset struct {
	// Items holds 1 or 2 item ids, ascending.
	Items []int
	// Support is the number of transactions containing all the items.
	Support int
}

// AprioriResult lists the frequent itemsets, 1-itemsets first, each group
// sorted by items — a canonical order every version produces identically.
type AprioriResult struct {
	Frequent []Itemset
	Timing   Timing
}

// rowItems extracts the valid (non-padding) item ids of one transaction,
// deduplicated via the seen scratch (len NumItems).
func rowItems(row []float64, seen []bool, out []int) []int {
	out = out[:0]
	for _, v := range row {
		id := int(v)
		if id < 0 || id >= len(seen) || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	for _, id := range out {
		seen[id] = false
	}
	sort.Ints(out)
	return out
}

// assemble builds the canonical result from support tables.
func assemble(oneSupports []float64, frequentOnes []int, pairs [][2]int, pairSupports []float64, minSupport int) []Itemset {
	var out []Itemset
	for _, item := range frequentOnes {
		out = append(out, Itemset{Items: []int{item}, Support: int(oneSupports[item])})
	}
	for i, p := range pairs {
		if int(pairSupports[i]) >= minSupport {
			out = append(out, Itemset{Items: []int{p[0], p[1]}, Support: int(pairSupports[i])})
		}
	}
	return out
}

// frequentItems filters items by support, ascending.
func frequentItems(supports []float64, minSupport int) []int {
	var out []int
	for item, s := range supports {
		if int(s) >= minSupport {
			out = append(out, item)
		}
	}
	return out
}

// candidatePairs enumerates all ascending pairs of frequent items — the
// apriori candidate-generation step (every subset of a frequent set must
// be frequent).
func candidatePairs(frequent []int) [][2]int {
	var out [][2]int
	for i := 0; i < len(frequent); i++ {
		for j := i + 1; j < len(frequent); j++ {
			out = append(out, [2]int{frequent[i], frequent[j]})
		}
	}
	return out
}

// AprioriSeq is the sequential reference implementation.
func AprioriSeq(tx *dataset.Matrix, cfg AprioriConfig) (*AprioriResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var timing Timing
	t0 := time.Now()
	seen := make([]bool, cfg.NumItems)
	items := make([]int, 0, tx.Cols)
	one := make([]float64, cfg.NumItems)
	for i := 0; i < tx.Rows; i++ {
		for _, id := range rowItems(tx.Row(i), seen, items) {
			one[id]++
		}
	}
	freq1 := frequentItems(one, cfg.MinSupport)
	pairs := candidatePairs(freq1)
	pairIdx := pairIndex(pairs)
	pairSupports := make([]float64, len(pairs))
	for i := 0; i < tx.Rows; i++ {
		ids := rowItems(tx.Row(i), seen, items)
		for a := 0; a < len(ids); a++ {
			for b := a + 1; b < len(ids); b++ {
				if idx, ok := pairIdx[[2]int{ids[a], ids[b]}]; ok {
					pairSupports[idx]++
				}
			}
		}
	}
	timing.Reduce = time.Since(t0)
	return &AprioriResult{
		Frequent: assemble(one, freq1, pairs, pairSupports, cfg.MinSupport),
		Timing:   timing,
	}, nil
}

func pairIndex(pairs [][2]int) map[[2]int]int {
	idx := make(map[[2]int]int, len(pairs))
	for i, p := range pairs {
		idx[p] = i
	}
	return idx
}

// AprioriManualFR runs both counting passes under FREERIDE: the support
// tables are the reduction objects.
func AprioriManualFR(tx *dataset.Matrix, cfg AprioriConfig) (*AprioriResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := freeride.New(cfg.Engine)
	defer eng.Close()
	var timing Timing
	src := dataset.NewMemorySource(tx)

	// Pass 1: 1-itemset supports.
	spec1 := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: cfg.NumItems, Elems: 1, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			seen := make([]bool, cfg.NumItems)
			items := make([]int, 0, args.Cols)
			for i := 0; i < args.NumRows; i++ {
				for _, id := range rowItems(args.Row(i), seen, items) {
					args.Accumulate(id, 0, 1)
				}
			}
			return nil
		},
	}
	t0 := time.Now()
	res1, err := eng.RunContext(context.Background(), spec1, src)
	if err != nil {
		return nil, err
	}
	timing.Reduce += time.Since(t0)
	one := res1.Object.Snapshot()
	freq1 := frequentItems(one, cfg.MinSupport)
	pairs := candidatePairs(freq1)
	if len(pairs) == 0 {
		return &AprioriResult{
			Frequent: assemble(one, freq1, nil, nil, cfg.MinSupport),
			Timing:   timing,
		}, nil
	}
	pairIdx := pairIndex(pairs)

	// Pass 2: candidate pair supports.
	spec2 := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: len(pairs), Elems: 1, Op: robj.OpAdd},
		Reduction: func(args *freeride.ReductionArgs) error {
			seen := make([]bool, cfg.NumItems)
			items := make([]int, 0, args.Cols)
			for i := 0; i < args.NumRows; i++ {
				ids := rowItems(args.Row(i), seen, items)
				for a := 0; a < len(ids); a++ {
					for b := a + 1; b < len(ids); b++ {
						if idx, ok := pairIdx[[2]int{ids[a], ids[b]}]; ok {
							args.Accumulate(idx, 0, 1)
						}
					}
				}
			}
			return nil
		},
	}
	t0 = time.Now()
	res2, err := eng.RunContext(context.Background(), spec2, src)
	if err != nil {
		return nil, err
	}
	timing.Reduce += time.Since(t0)
	return &AprioriResult{
		Frequent: assemble(one, freq1, pairs, res2.Object.Snapshot(), cfg.MinSupport),
		Timing:   timing,
	}, nil
}

// AprioriMapReduce is the Map-Reduce baseline: pass 1 emits (item, 1)
// pairs, pass 2 emits (pairKey, 1) pairs, both with combiners — the
// classic formulation whose intermediate state FREERIDE avoids.
func AprioriMapReduce(tx *dataset.Matrix, cfg AprioriConfig) (*AprioriResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	eng := mapreduce.New[int, float64](mapreduce.Config{
		Workers:   cfg.Engine.Threads,
		SplitRows: cfg.Engine.SplitRows,
	})
	sum := func(_ int, vals []float64) float64 {
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	}
	var timing Timing
	t0 := time.Now()
	out1, _, err := eng.Run(mapreduce.Spec[int, float64]{
		Map: func(a *mapreduce.MapArgs, emit func(int, float64)) error {
			seen := make([]bool, cfg.NumItems)
			items := make([]int, 0, a.Cols)
			for i := 0; i < a.NumRows; i++ {
				for _, id := range rowItems(a.Row(i), seen, items) {
					emit(id, 1)
				}
			}
			return nil
		},
		Reduce:  sum,
		Combine: sum,
	}, dataset.NewMemorySource(tx))
	if err != nil {
		return nil, err
	}
	one := make([]float64, cfg.NumItems)
	for id, s := range out1 {
		one[id] = s
	}
	freq1 := frequentItems(one, cfg.MinSupport)
	pairs := candidatePairs(freq1)
	pairIdx := pairIndex(pairs)
	pairSupports := make([]float64, len(pairs))
	if len(pairs) > 0 {
		out2, _, err := eng.Run(mapreduce.Spec[int, float64]{
			Map: func(a *mapreduce.MapArgs, emit func(int, float64)) error {
				seen := make([]bool, cfg.NumItems)
				items := make([]int, 0, a.Cols)
				for i := 0; i < a.NumRows; i++ {
					ids := rowItems(a.Row(i), seen, items)
					for x := 0; x < len(ids); x++ {
						for y := x + 1; y < len(ids); y++ {
							if idx, ok := pairIdx[[2]int{ids[x], ids[y]}]; ok {
								emit(idx, 1)
							}
						}
					}
				}
				return nil
			},
			Reduce:  sum,
			Combine: sum,
		}, dataset.NewMemorySource(tx))
		if err != nil {
			return nil, err
		}
		for idx, s := range out2 {
			pairSupports[idx] = s
		}
	}
	timing.Reduce = time.Since(t0)
	return &AprioriResult{
		Frequent: assemble(one, freq1, pairs, pairSupports, cfg.MinSupport),
		Timing:   timing,
	}, nil
}

// Apriori dispatches to the named version.
func Apriori(v Version, tx *dataset.Matrix, cfg AprioriConfig) (*AprioriResult, error) {
	switch v {
	case Seq:
		return AprioriSeq(tx, cfg)
	case ManualFR:
		return AprioriManualFR(tx, cfg)
	case MapReduce:
		return AprioriMapReduce(tx, cfg)
	default:
		return nil, fmt.Errorf("apps: unsupported apriori version %v", v)
	}
}

// GenerateTransactions synthesizes a market-basket dataset: n transactions
// of up to width items drawn from a skewed (roughly Zipfian) distribution
// over numItems items, padded with -1. Deterministic per seed.
func GenerateTransactions(n, width, numItems int, seed int64) *dataset.Matrix {
	m := dataset.NewMatrix(n, width)
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < n; i++ {
		row := m.Row(i)
		cnt := 1 + int(next()%uint64(width))
		for j := 0; j < width; j++ {
			if j < cnt {
				// Skew toward low item ids: square the uniform draw.
				u := float64(next()%1024) / 1024
				row[j] = float64(int(u * u * float64(numItems)))
			} else {
				row[j] = -1
			}
		}
	}
	return m
}
