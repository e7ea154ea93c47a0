package dataset

import (
	"context"
	"fmt"
	"sync"

	"chapelfreeride/internal/obs"
)

// Prefetch cache counters, cumulative across every PrefetchSource in the
// process; per-source values stay available through Stats. Coalesced waits
// are block requests that found an identical fetch already in flight and
// waited for it instead of issuing a duplicate read — they cost latency but
// no I/O, which is why they are counted separately from resident hits.
var (
	mPrefHits   = obs.Default.Counter("dataset_prefetch_hits_total", "block reads served from the read-ahead cache")
	mPrefMisses = obs.Default.Counter("dataset_prefetch_misses_total", "block reads that went to the underlying source")
	mPrefIssued = obs.Default.Counter("dataset_prefetch_issued_total", "background read-ahead fetches scheduled")
	mPrefCoal   = obs.Default.Counter("dataset_prefetch_coalesced_total", "block reads coalesced onto an identical in-flight fetch")
)

// PrefetchSource wraps a Source with a read-ahead cache: background
// goroutines keep the next window of rows resident so workers that scan
// mostly forward hit memory instead of the disk. FREERIDE determines "the
// order in which data instances are read from the disks" in its runtime;
// this is that I/O layer, usable in front of FileSource.
//
// The cache holds fixed-size row blocks with a depth-block read-ahead
// pipeline: every block touch (hit or miss) schedules background fetches
// until the next `depth` blocks are resident or in flight, so a steady
// forward scan stays double-buffered (or deeper) instead of stalling on
// every other block. Concurrent misses on the same block coalesce onto one
// underlying read through a per-block in-flight latch. Reads spanning
// blocks assemble from multiple fetches. Safe for concurrent use.
type PrefetchSource struct {
	src       Source
	rd        Reader // capability-resolved view of src, shared by all fetches
	blockRows int
	depth     int // read-ahead pipeline depth in blocks

	mu     sync.Mutex
	blocks map[int][]float64 // block index → rows payload
	order  []int             // FIFO of resident blocks for eviction
	max    int               // max resident blocks

	pending map[int]*sync.WaitGroup // per-block in-flight fetch latches

	// stats
	hits, coalesced, misses, prefetches int64
}

// NewPrefetchSource wraps src with a read-ahead cache of maxBlocks blocks
// of blockRows rows each and the default double-buffered pipeline.
// blockRows defaults to 4096 and maxBlocks to 8.
func NewPrefetchSource(src Source, blockRows, maxBlocks int) *PrefetchSource {
	return NewPrefetchSourceDepth(src, blockRows, maxBlocks, 2)
}

// NewPrefetchSourceDepth is NewPrefetchSource with an explicit read-ahead
// depth: up to depth blocks beyond the touched one are kept resident or in
// flight. Depth is clamped to [1, maxBlocks-1] so read-ahead can never
// evict the window it feeds.
func NewPrefetchSourceDepth(src Source, blockRows, maxBlocks, depth int) *PrefetchSource {
	if blockRows < 1 {
		blockRows = 4096
	}
	if maxBlocks < 2 {
		maxBlocks = 8
	}
	if depth < 1 {
		depth = 1
	}
	if depth > maxBlocks-1 {
		depth = maxBlocks - 1
	}
	return &PrefetchSource{
		src:       src,
		rd:        NewReader(src),
		blockRows: blockRows,
		depth:     depth,
		blocks:    map[int][]float64{},
		pending:   map[int]*sync.WaitGroup{},
		max:       maxBlocks,
	}
}

// NumRows implements Source.
func (p *PrefetchSource) NumRows() int { return p.src.NumRows() }

// Cols implements Source.
func (p *PrefetchSource) Cols() int { return p.src.Cols() }

// Depth reports the read-ahead pipeline depth in blocks.
func (p *PrefetchSource) Depth() int { return p.depth }

// BlockRows reports the block size in rows.
func (p *PrefetchSource) BlockRows() int { return p.blockRows }

// PrefetchStats is one source's cache behaviour, split by how long a
// request waited: ResidentHits found the block already cached,
// CoalescedWaits piggybacked on an in-flight fetch (no duplicate I/O, but
// latency), Misses fetched synchronously, Prefetches counts background
// fetches issued.
type PrefetchStats struct {
	ResidentHits   int64
	CoalescedWaits int64
	Misses         int64
	Prefetches     int64
}

// HitShare is the fraction of block requests served with no wait at all —
// the "pipeline kept up" measure. 0 when no requests were made.
func (s PrefetchStats) HitShare() float64 {
	total := s.ResidentHits + s.CoalescedWaits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.ResidentHits) / float64(total)
}

// Stats reports cache behaviour: block hits (resident or coalesced onto an
// in-flight fetch), synchronous misses, and background prefetches issued.
func (p *PrefetchSource) Stats() (hits, misses, prefetches int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hits + p.coalesced, p.misses, p.prefetches
}

// DetailedStats reports the full per-source breakdown.
func (p *PrefetchSource) DetailedStats() PrefetchStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PrefetchStats{
		ResidentHits:   p.hits,
		CoalescedWaits: p.coalesced,
		Misses:         p.misses,
		Prefetches:     p.prefetches,
	}
}

// blockCount returns the number of blocks covering the source.
func (p *PrefetchSource) blockCount() int {
	return (p.src.NumRows() + p.blockRows - 1) / p.blockRows
}

// fetchBlock loads block b from the underlying source (no locks held),
// honoring ctx when the source supports cancellation.
func (p *PrefetchSource) fetchBlock(ctx context.Context, b int) ([]float64, error) {
	lo := b * p.blockRows
	hi := lo + p.blockRows
	if hi > p.src.NumRows() {
		hi = p.src.NumRows()
	}
	buf := make([]float64, (hi-lo)*p.src.Cols())
	if err := p.rd.ReadInto(ctx, lo, hi, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// install puts a fetched block into the cache, evicting FIFO.
func (p *PrefetchSource) install(b int, payload []float64) {
	if _, ok := p.blocks[b]; ok {
		return
	}
	p.blocks[b] = payload
	p.order = append(p.order, b)
	for len(p.order) > p.max {
		victim := p.order[0]
		p.order = p.order[1:]
		delete(p.blocks, victim)
	}
}

// readAheadLocked tops the pipeline up behind block b: blocks b+1..b+depth
// that are neither resident nor in flight get a background fetch, each
// latched in pending so foreground misses coalesce onto it. Called with
// p.mu held, on hits and misses alike — a scan that always hits must still
// keep its read-ahead window moving, or the pipeline drains and every
// depth-th block misses.
func (p *PrefetchSource) readAheadLocked(ctx context.Context, b int) {
	count := p.blockCount()
	for nb := b + 1; nb <= b+p.depth && nb < count; nb++ {
		if _, resident := p.blocks[nb]; resident {
			continue
		}
		if _, inflight := p.pending[nb]; inflight {
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		p.pending[nb] = wg
		p.prefetches++
		mPrefIssued.Inc()
		go func(nb int) {
			pl, err := p.fetchBlock(ctx, nb)
			p.mu.Lock()
			defer p.mu.Unlock()
			if p.pending[nb] == wg {
				delete(p.pending, nb)
			}
			if err == nil {
				p.install(nb, pl)
			}
			wg.Done()
		}(nb)
	}
}

// getBlock returns block b's payload: from the cache on a hit, by waiting
// on an identical in-flight fetch when one exists (the coalescing latch —
// two concurrent misses on b issue one underlying read), or by fetching
// synchronously. Every touch tops up the read-ahead pipeline. Both the
// synchronous fetch and the background lookahead run under ctx, so
// cancelling a run also abandons its in-flight read-ahead instead of
// leaving it to finish against a dead run.
func (p *PrefetchSource) getBlock(ctx context.Context, b int) ([]float64, error) {
	p.mu.Lock()
	for {
		if payload, ok := p.blocks[b]; ok {
			p.hits++
			mPrefHits.Inc()
			p.readAheadLocked(ctx, b)
			p.mu.Unlock()
			return payload, nil
		}
		wg, ok := p.pending[b]
		if !ok {
			break
		}
		// An identical fetch (background read-ahead or a concurrent
		// reader's miss) is in flight: wait for it instead of issuing a
		// duplicate read of the same block.
		p.coalesced++
		mPrefCoal.Inc()
		p.mu.Unlock()
		wg.Wait()
		p.mu.Lock()
		// Loop: the block is now resident (count it served), or the fetch
		// failed and this reader retries — becoming the fetcher itself if
		// it gets there first.
	}
	// Miss: latch the fetch under pending before dropping the lock, so
	// every concurrent reader of b coalesces onto this one read.
	p.misses++
	mPrefMisses.Inc()
	wg := &sync.WaitGroup{}
	wg.Add(1)
	p.pending[b] = wg
	p.mu.Unlock()

	payload, err := p.fetchBlock(ctx, b)

	p.mu.Lock()
	if p.pending[b] == wg {
		delete(p.pending, b)
	}
	if err == nil {
		p.install(b, payload)
		p.readAheadLocked(ctx, b)
	}
	// Release waiters only after install: they re-check under the lock and
	// find the payload (or, on error, retry the fetch themselves).
	wg.Done()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// ReadRows implements Source, assembling from cached blocks.
func (p *PrefetchSource) ReadRows(begin, end int, dst []float64) error {
	return p.ReadRowsContext(context.Background(), begin, end, dst)
}

// ReadRowsContext implements ContextSource, assembling from cached blocks
// with cancellable fetches.
func (p *PrefetchSource) ReadRowsContext(ctx context.Context, begin, end int, dst []float64) error {
	if begin < 0 || end > p.src.NumRows() || begin > end {
		return fmt.Errorf("dataset: ReadRows range [%d,%d) out of [0,%d)", begin, end, p.src.NumRows())
	}
	cols := p.src.Cols()
	if len(dst) < (end-begin)*cols {
		return fmt.Errorf("dataset: ReadRows dst len %d, need %d", len(dst), (end-begin)*cols)
	}
	for row := begin; row < end; {
		b := row / p.blockRows
		payload, err := p.getBlock(ctx, b)
		if err != nil {
			return err
		}
		blockLo := b * p.blockRows
		upto := (b + 1) * p.blockRows
		if upto > end {
			upto = end
		}
		src := payload[(row-blockLo)*cols : (upto-blockLo)*cols]
		copy(dst[(row-begin)*cols:], src)
		row = upto
	}
	return nil
}
