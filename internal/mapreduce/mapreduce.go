// Package mapreduce implements a Phoenix-style in-memory Map-Reduce runtime
// for multicore machines — the baseline processing structure on the
// right-hand side of Fig. 4 in the paper.
//
// Where FREERIDE fuses map and reduce into one step over an explicit
// reduction object, Map-Reduce processes all data elements in the map step,
// materializes intermediate (key, value) pairs, sorts and groups them by
// key, and only then reduces. The sort/group/shuffle and the intermediate
// pair storage are exactly the overheads the paper credits FREERIDE with
// avoiding; Stats exposes them so benchmarks can show the difference.
//
// The engine is generic over ordered keys and arbitrary values and supports
// an optional combiner that pre-reduces pairs inside each map worker.
package mapreduce

import (
	"cmp"
	"errors"
	"runtime"
	"sort"
	"sync"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/sched"
)

// Config controls the runtime's parallel execution. The zero value runs with
// GOMAXPROCS map/reduce workers and 4096-row map splits.
type Config struct {
	// Workers is the number of map (and reduce) workers. Defaults to
	// GOMAXPROCS(0).
	Workers int
	// SplitRows is the number of rows per map split. Defaults to 4096.
	SplitRows int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SplitRows < 1 {
		c.SplitRows = 4096
	}
	return c
}

// MapArgs hands one split of the input to a map function. It reuses the
// FREERIDE ReductionArgs row layout so the same workload code can drive
// either runtime.
type MapArgs struct {
	// Data holds the split's rows, row-major.
	Data []float64
	// NumRows is the number of rows in the split.
	NumRows int
	// Cols is the number of features per row.
	Cols int
	// Begin is the global index of the first row.
	Begin int
}

// Row returns row i of the split.
func (a *MapArgs) Row(i int) []float64 { return a.Data[i*a.Cols : (i+1)*a.Cols] }

// Pair is an intermediate (key, value) pair emitted by the map phase.
type Pair[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Spec describes one Map-Reduce job.
type Spec[K cmp.Ordered, V any] struct {
	// Map processes one split, emitting intermediate pairs. Required.
	Map func(args *MapArgs, emit func(K, V)) error
	// Reduce folds all values of one key into a single value. Required.
	Reduce func(key K, values []V) V
	// Combine optionally pre-reduces pairs inside each map worker before
	// the sort phase, shrinking intermediate state (a standard Map-Reduce
	// optimization; Hadoop's combiner).
	Combine func(key K, values []V) V
}

// Stats is the timing and volume breakdown of a job.
type Stats struct {
	// MapTime is the wall time of the parallel map phase.
	MapTime time.Duration
	// SortTime covers sorting and grouping intermediate pairs — the cost
	// FREERIDE's design avoids.
	SortTime time.Duration
	// ReduceTime is the wall time of the parallel reduce phase.
	ReduceTime time.Duration
	// IntermediatePairs counts pairs entering the sort phase (after the
	// combiner, if any) — the intermediate storage the paper calls out.
	IntermediatePairs int
	// EmittedPairs counts pairs emitted by map before combining.
	EmittedPairs int
	// Keys is the number of distinct keys reduced.
	Keys int
}

// Total returns the sum of all phase times.
func (s Stats) Total() time.Duration { return s.MapTime + s.SortTime + s.ReduceTime }

// Engine executes Map-Reduce jobs over data sources.
type Engine[K cmp.Ordered, V any] struct {
	cfg Config
}

// New creates an engine with the given configuration.
func New[K cmp.Ordered, V any](cfg Config) *Engine[K, V] {
	return &Engine[K, V]{cfg: cfg.withDefaults()}
}

// Run executes the job and returns the reduced value per key.
func (e *Engine[K, V]) Run(spec Spec[K, V], src dataset.Source) (map[K]V, Stats, error) {
	var stats Stats
	if spec.Map == nil || spec.Reduce == nil {
		return nil, stats, errors.New("mapreduce: Spec.Map and Spec.Reduce are required")
	}
	if src == nil {
		return nil, stats, errors.New("mapreduce: nil data source")
	}
	cfg := e.cfg

	// Map phase: workers pull splits and buffer pairs locally.
	t0 := time.Now()
	units := (src.NumRows() + cfg.SplitRows - 1) / cfg.SplitRows
	splits := freeride.DefaultSplitter(src.NumRows(), units)
	s := sched.New(sched.Dynamic, len(splits), cfg.Workers, 1)
	perWorker := make([][]Pair[K, V], cfg.Workers)
	emitted := make([]int, cfg.Workers)
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	slicer, hasSlicer := src.(dataset.RowSlicer)
	cols := src.Cols()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf []float64
			var local []Pair[K, V]
			emit := func(k K, v V) {
				local = append(local, Pair[K, V]{Key: k, Value: v})
				emitted[w]++
			}
			args := MapArgs{Cols: cols}
			for {
				ci, ok := s.Next(w)
				if !ok {
					break
				}
				for si := ci.Begin; si < ci.End; si++ {
					sp := splits[si]
					if hasSlicer {
						args.Data = slicer.Rows(sp.Begin, sp.End)
					} else {
						need := sp.Len() * cols
						if cap(buf) < need {
							buf = make([]float64, need)
						}
						buf = buf[:need]
						if err := src.ReadRows(sp.Begin, sp.End, buf); err != nil {
							errOnce.Do(func() { firstErr = err })
							return
						}
						args.Data = buf
					}
					args.NumRows = sp.Len()
					args.Begin = sp.Begin
					if err := spec.Map(&args, emit); err != nil {
						errOnce.Do(func() { firstErr = err })
						return
					}
				}
			}
			if spec.Combine != nil {
				local = combineLocal(local, spec.Combine)
			}
			perWorker[w] = local
		}(w)
	}
	wg.Wait()
	stats.MapTime = time.Since(t0)
	if firstErr != nil {
		return nil, stats, firstErr
	}
	for _, n := range emitted {
		stats.EmittedPairs += n
	}

	// Sort/group phase: concatenate worker buffers and sort by key — the
	// step Fig. 4 labels "Sort (i,val) pairs using i". Large pair sets are
	// sorted with a parallel merge sort, as Phoenix does.
	t0 = time.Now()
	total := 0
	for _, p := range perWorker {
		total += len(p)
	}
	all := make([]Pair[K, V], 0, total)
	for _, p := range perWorker {
		all = append(all, p...)
	}
	stats.IntermediatePairs = len(all)
	parallelSortPairs(all, cfg.Workers)
	// Group into runs of equal key.
	type group struct {
		key    K
		values []V
	}
	var groups []group
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Key == all[i].Key {
			j++
		}
		vals := make([]V, 0, j-i)
		for k := i; k < j; k++ {
			vals = append(vals, all[k].Value)
		}
		groups = append(groups, group{key: all[i].Key, values: vals})
		i = j
	}
	stats.SortTime = time.Since(t0)
	stats.Keys = len(groups)

	// Reduce phase: workers pull key groups.
	t0 = time.Now()
	out := make(map[K]V, len(groups))
	var outMu sync.Mutex
	rs := sched.New(sched.Dynamic, len(groups), cfg.Workers, 4)
	wg = sync.WaitGroup{}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				ci, ok := rs.Next(w)
				if !ok {
					return
				}
				for gi := ci.Begin; gi < ci.End; gi++ {
					g := groups[gi]
					v := spec.Reduce(g.key, g.values)
					outMu.Lock()
					out[g.key] = v
					outMu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	stats.ReduceTime = time.Since(t0)
	return out, stats, nil
}

// parallelSortThreshold is the pair count below which a sequential sort is
// cheaper than forking workers.
const parallelSortThreshold = 1 << 13

// parallelSortPairs sorts pairs by key using per-chunk sorts followed by
// pairwise merge rounds. Within a key, value order is unspecified (it
// already depends on map-worker scheduling), matching the Map-Reduce
// contract that reducers see an unordered value bag.
func parallelSortPairs[K cmp.Ordered, V any](pairs []Pair[K, V], workers int) {
	n := len(pairs)
	if workers < 2 || n < parallelSortThreshold {
		sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
		return
	}
	// Chunk bounds.
	chunks := workers
	bounds := make([]int, chunks+1)
	for i := 0; i <= chunks; i++ {
		bounds[i] = i * n / chunks
	}
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo, hi := bounds[i], bounds[i+1]
		wg.Add(1)
		go func(s []Pair[K, V]) {
			defer wg.Done()
			sort.Slice(s, func(a, b int) bool { return s[a].Key < s[b].Key })
		}(pairs[lo:hi])
	}
	wg.Wait()
	// Pairwise merge rounds into a scratch buffer, ping-ponging.
	src, dst := pairs, make([]Pair[K, V], n)
	runs := bounds
	for len(runs) > 2 {
		nextRuns := []int{0}
		var mwg sync.WaitGroup
		for i := 0; i+2 < len(runs); i += 2 {
			lo, mid, hi := runs[i], runs[i+1], runs[i+2]
			nextRuns = append(nextRuns, hi)
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				mergeRuns(dst[lo:hi], src[lo:mid], src[mid:hi])
			}(lo, mid, hi)
		}
		if len(runs)%2 == 0 { // odd number of runs: copy the tail through
			lo, hi := runs[len(runs)-2], runs[len(runs)-1]
			copy(dst[lo:hi], src[lo:hi])
			nextRuns = append(nextRuns, hi)
		}
		mwg.Wait()
		src, dst = dst, src
		runs = nextRuns
	}
	if &src[0] != &pairs[0] {
		copy(pairs, src)
	}
}

// mergeRuns merges two sorted runs into out (len(out) == len(a)+len(b)).
func mergeRuns[K cmp.Ordered, V any](out, a, b []Pair[K, V]) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Key < a[i].Key {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

// combineLocal applies the combiner to one worker's pair buffer: sort,
// group, reduce each group to a single pair.
func combineLocal[K cmp.Ordered, V any](pairs []Pair[K, V], combine func(K, []V) V) []Pair[K, V] {
	if len(pairs) == 0 {
		return pairs
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	out := pairs[:0]
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].Key == pairs[i].Key {
			j++
		}
		vals := make([]V, j-i)
		for k := i; k < j; k++ {
			vals[k-i] = pairs[k].Value
		}
		out = append(out, Pair[K, V]{Key: pairs[i].Key, Value: combine(pairs[i].Key, vals)})
		i = j
	}
	return out
}
