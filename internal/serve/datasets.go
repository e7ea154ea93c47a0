package serve

import (
	"fmt"
	"sync"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/obs"
)

// Dataset-cache traffic counters: hit/miss tells whether the working set
// fits CacheBytes; evictions say how often jobs force re-materialization.
var (
	mCacheHits = obs.Default.Counter("serve_dataset_cache_hits_total",
		"jobs that found their dataset resident in the serve cache")
	mCacheMisses = obs.Default.Counter("serve_dataset_cache_misses_total",
		"jobs that had to materialize their dataset from its recipe")
	mCacheEvictions = obs.Default.Counter("serve_dataset_cache_evictions_total",
		"resident datasets evicted to stay under the cache byte bound")
)

// DatasetSpec is a registered dataset's recipe — also its JSON wire shape.
// The server stores recipes, not data: a dataset is materialized on first
// use, cached LRU under the server's byte bound, and re-materialized from
// the recipe (deterministically, via the seed) after an eviction. Recipes
// make registration O(1) regardless of dataset size and keep the cache an
// optimization rather than a correctness concern.
type DatasetSpec struct {
	Name string `json:"name"`
	// Kind selects the generator: "gaussian" (mixture of Groups gaussians,
	// the clustering kernels' natural input), "uniform", or "sparse" (a
	// Rows×Dim sparse matrix served as NNZ (row, col, value) triples with
	// 0-based whole-number coordinates and integer values — the input shape
	// the sparse kernels linearize through the inspector), or "file" (a
	// binary dataset file on the server's disk, memory-mapped on
	// materialization so row-major files feed jobs zero-copy).
	Kind string `json:"kind"`
	// Rows and Dim are the dataset shape. For the file kind they are read
	// from the file header at registration; callers may leave them zero or
	// supply them as a cross-check.
	Rows int `json:"rows"`
	Dim  int `json:"dim"`
	// Groups is the gaussian mixture's component count (gaussian kind only).
	Groups int `json:"groups,omitempty"`
	// NNZ is the nonzero count of a sparse recipe (sparse kind only).
	// Coordinates are drawn uniformly, so duplicates may occur; kernels fold
	// them under the reduction operator like any other aliased entry.
	NNZ  int   `json:"nnz,omitempty"`
	Seed int64 `json:"seed"`
	// Path is the dataset file (file kind only), in
	// dataset.WriteFileLayout's format.
	Path string `json:"path,omitempty"`
}

func (s DatasetSpec) validate() error {
	if s.Name == "" {
		return fmt.Errorf("serve: dataset needs a name")
	}
	if s.Kind == "file" {
		if s.Path == "" {
			return fmt.Errorf("serve: file dataset %q needs a path", s.Name)
		}
		return nil // shape comes from the file header at registration
	}
	if s.Rows < 1 || s.Dim < 1 {
		return fmt.Errorf("serve: dataset %q needs rows >= 1 and dim >= 1", s.Name)
	}
	switch s.Kind {
	case "gaussian":
		if s.Groups < 1 {
			return fmt.Errorf("serve: gaussian dataset %q needs groups >= 1", s.Name)
		}
	case "uniform":
	case "sparse":
		if s.NNZ < 1 {
			return fmt.Errorf("serve: sparse dataset %q needs nnz >= 1", s.Name)
		}
	default:
		return fmt.Errorf("serve: dataset %q has unknown kind %q (want gaussian, uniform, sparse, or file)", s.Name, s.Kind)
	}
	return nil
}

// sizeBytes is the materialized footprint the cache accounts for. A sparse
// recipe materializes NNZ×3 triples, not the Rows×Dim logical matrix.
func (s DatasetSpec) sizeBytes() int64 {
	if s.Kind == "sparse" {
		return int64(s.NNZ) * 3 * 8
	}
	return int64(s.Rows) * int64(s.Dim) * 8
}

// checkFootprint rejects a generated recipe whose materialized footprint
// (sizeBytes) exceeds twice the cache bound. Twice, not once: source serves
// a dataset larger than the bound by keeping it resident alone until the
// next miss. n×w×8 ≤ 2×max is tested as n ≤ max/4/w, exact in integers and
// free of multiplication, so a shape whose product overflows int64 is
// rejected instead of wrapping to a size the cache would accept.
func (s DatasetSpec) checkFootprint(max int64) error {
	n, w := int64(s.Rows), int64(s.Dim)
	if s.Kind == "sparse" {
		n, w = int64(s.NNZ), 3
	}
	if n > max/4/w {
		return fmt.Errorf("serve: dataset %q materializes %d x %d x 8 bytes, more than twice the %d-byte dataset cache",
			s.Name, n, w, max)
	}
	return nil
}

// materialize generates the matrix from the recipe.
func (s DatasetSpec) materialize() *dataset.Matrix {
	switch s.Kind {
	case "gaussian":
		points, _ := dataset.GaussianMixture(s.Rows, s.Dim, s.Groups, s.Seed)
		return points
	case "sparse":
		// NNZ×3 (row, col, value) triples: in-range whole-number coordinates,
		// small integer values so float accumulation stays exact and kernel
		// results are order-independent under any scheduler.
		m := dataset.NewMatrix(s.NNZ, 3)
		r := s.Seed
		for i := 0; i < s.NNZ; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			m.Data[3*i] = float64(uint64(r) >> 33 % uint64(s.Rows))
			m.Data[3*i+1] = float64(uint64(r) >> 12 % uint64(s.Dim))
			m.Data[3*i+2] = float64(int64(uint64(r)>>45%17) - 8)
		}
		return m
	default: // uniform; validate() rejects anything else at registration
		return dataset.UniformMatrix(s.Rows, s.Dim, s.Seed, 0, 1)
	}
}

// residentEntry is one cached dataset: its served source and the bytes the
// cache accounts for it. Matrix-backed entries account the materialized
// heap footprint; mapped file entries account MappedBytes — the live
// mapping length, which is page-cache-backed and shared, but is the bound
// the operator configured against.
type residentEntry struct {
	src   dataset.Source
	bytes int64
}

// datasetCache holds the registered recipes plus an LRU-by-bytes cache of
// materialized sources.
type datasetCache struct {
	mu       sync.Mutex
	max      int64
	used     int64
	specs    map[string]DatasetSpec
	resident map[string]residentEntry
	lru      []string // resident names, least recently used first
}

func newDatasetCache(maxBytes int64) *datasetCache {
	return &datasetCache{
		max:      maxBytes,
		specs:    map[string]DatasetSpec{},
		resident: map[string]residentEntry{},
	}
}

// register records a recipe. Re-registering an identical recipe is
// idempotent; changing an existing name is rejected so running jobs never
// observe a dataset swapped underneath them. File recipes are probed at
// registration: the header supplies (and cross-checks) the shape, so a bad
// path or corrupt file fails here rather than on a job's first run.
// register validates and stores a recipe, returning the stored form: file
// recipes come back with Rows/Dim filled from the file header, so callers
// (and the HTTP response) see the shape the dataset will actually serve.
// Generated recipes must fit twice the cache bound once materialized
// (checkFootprint); a mapped file may exceed it, since its pages live in
// the page cache.
func (c *datasetCache) register(s DatasetSpec) (DatasetSpec, error) {
	if err := s.validate(); err != nil {
		return s, err
	}
	if s.Kind != "file" {
		if err := s.checkFootprint(c.max); err != nil {
			return s, err
		}
	} else {
		fs, err := dataset.OpenFileSource(s.Path)
		if err != nil {
			return s, fmt.Errorf("serve: file dataset %q: %w", s.Name, err)
		}
		rows, dim := fs.NumRows(), fs.Cols()
		if err := fs.Close(); err != nil {
			return s, err
		}
		if (s.Rows != 0 && s.Rows != rows) || (s.Dim != 0 && s.Dim != dim) {
			return s, fmt.Errorf("serve: file dataset %q: recipe says %dx%d, file header says %dx%d",
				s.Name, s.Rows, s.Dim, rows, dim)
		}
		s.Rows, s.Dim = rows, dim
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.specs[s.Name]; ok {
		if prev != s {
			return s, fmt.Errorf("serve: dataset %q already registered with a different recipe", s.Name)
		}
		return prev, nil
	}
	c.specs[s.Name] = s
	return s, nil
}

// list returns the registered recipes sorted by name.
func (c *datasetCache) list() []DatasetSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DatasetSpec, 0, len(c.specs))
	for _, s := range c.specs {
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Name < out[j-1].Name; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// recipe returns the registered recipe for name, if any.
func (c *datasetCache) recipe(name string) (DatasetSpec, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.specs[name]
	return s, ok
}

// touch moves name to the most-recently-used end of the LRU order.
func (c *datasetCache) touch(name string) {
	for i, n := range c.lru {
		if n == name {
			c.lru = append(append(c.lru[:i:i], c.lru[i+1:]...), name)
			return
		}
	}
	c.lru = append(c.lru, name)
}

// source returns a Source over the named dataset, materializing it on a
// cache miss and evicting least-recently-used residents to stay under the
// byte bound. A dataset larger than the whole bound is still served — it
// just never stays resident. Jobs already holding an evicted source keep it
// alive through their own reference; eviction only drops the cache's — a
// dropped mapped file unmaps itself once the last job's reference dies (the
// finalizer on dataset.MappedFile), so eviction never pulls pages out from
// under a running pass.
func (c *datasetCache) source(name string) (dataset.Source, error) {
	c.mu.Lock()
	spec, ok := c.specs[name]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("serve: unknown dataset %q", name)
	}
	if e, ok := c.resident[name]; ok {
		c.touch(name)
		c.mu.Unlock()
		mCacheHits.Inc()
		return e.src, nil
	}
	c.mu.Unlock()

	// Materialize outside the lock: generation (or mapping) is the expensive
	// part, and concurrent jobs for other datasets must not stall behind it.
	// Two jobs racing on the same cold dataset both materialize; the second
	// insert wins the cache slot and the loser's copy dies with its job.
	mCacheMisses.Inc()
	var entry residentEntry
	if spec.Kind == "file" {
		ms, err := dataset.OpenMappedSource(spec.Path)
		if err != nil {
			return nil, fmt.Errorf("serve: file dataset %q: %w", name, err)
		}
		entry = residentEntry{src: ms, bytes: ms.MappedBytes()}
		if !ms.Mapped() {
			// Fallback mode reads from disk per job; account the logical
			// footprint so the operator's bound still means something.
			entry.bytes = spec.sizeBytes()
		}
	} else {
		entry = residentEntry{src: dataset.NewMemorySource(spec.materialize()), bytes: spec.sizeBytes()}
	}

	c.mu.Lock()
	if _, ok := c.resident[name]; !ok {
		c.resident[name] = entry
		c.used += entry.bytes
		c.touch(name)
		for c.used > c.max && len(c.lru) > 1 {
			victim := c.lru[0]
			if victim == name {
				break // never evict the dataset just brought in for this job
			}
			c.lru = c.lru[1:]
			c.used -= c.resident[victim].bytes
			delete(c.resident, victim)
			mCacheEvictions.Inc()
		}
	}
	c.mu.Unlock()
	return entry.src, nil
}

// residentBytes reports the cache's current accounted footprint.
func (c *datasetCache) residentBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
