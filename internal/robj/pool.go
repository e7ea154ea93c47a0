package robj

import (
	"fmt"
	"sync"

	"chapelfreeride/internal/obs"
)

// Pool visibility counters: how often a Get was served by resetting a
// retired object versus allocating a fresh one.
var (
	mPoolHits = obs.Default.Counter("robj_pool_hits_total",
		"reduction objects served from a pool by reset instead of allocation")
	mPoolMisses = obs.Default.Counter("robj_pool_misses_total",
		"pool Gets that had to allocate a fresh reduction object")
)

// poolKey is the full identity of an Object's layout: two objects are
// interchangeable only when every field matches (replicas depend on workers,
// the cell arrays on strategy and shape, the identity fill on op).
type poolKey struct {
	strategy Strategy
	op       Op
	groups   int
	elems    int
	workers  int
}

// poolKeyCap bounds how many retired objects one key retains; beyond it
// Put drops the object for the GC, so a burst of releases cannot pin an
// unbounded amount of memory in the pool.
const poolKeyCap = 16

// Pool recycles reduction objects across engine passes, keyed by the full
// (strategy, op, shape, workers) layout: Get returns a reset,
// ready-to-accumulate object (reusing a retired one when the key matches)
// and Put retires a merged object for the next Get. Safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[poolKey][]*Object
}

// NewPool creates an empty object pool.
func NewPool() *Pool { return &Pool{free: map[poolKey][]*Object{}} }

// Get returns an object of the requested layout with every cell at the
// operator's identity: a retired object when one is pooled under the key,
// a fresh allocation otherwise.
func (p *Pool) Get(strategy Strategy, op Op, groups, elems, workers int) (*Object, error) {
	if workers < 1 {
		workers = 1
	}
	key := poolKey{strategy: strategy, op: op, groups: groups, elems: elems, workers: workers}
	p.mu.Lock()
	if list := p.free[key]; len(list) > 0 {
		o := list[len(list)-1]
		list[len(list)-1] = nil
		p.free[key] = list[:len(list)-1]
		p.mu.Unlock()
		mPoolHits.Inc()
		o.Reset()
		return o, nil
	}
	p.mu.Unlock()
	mPoolMisses.Inc()
	return Alloc(strategy, op, groups, elems, workers)
}

// Put retires a merged object for reuse by a later Get with the same
// layout. The caller must not touch the object (or slices obtained from its
// Snapshot) afterwards. Objects that are mid-flight — allocated but not yet
// merged — are rejected: resetting them would race with accumulators still
// writing, so the pool refuses rather than corrupt a pass.
func (p *Pool) Put(o *Object) error {
	if o == nil {
		return fmt.Errorf("robj: pool Put of nil object")
	}
	if !o.Merged() {
		return fmt.Errorf("robj: pool Put of un-merged %dx%d/%v object: only finished (merged) objects may be pooled — a mid-flight object's cells are still being written",
			o.Groups(), o.ElemsPerGroup(), o.Op())
	}
	key := poolKey{strategy: o.Strategy(), op: o.Op(), groups: o.Groups(), elems: o.ElemsPerGroup(), workers: o.Workers()}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) >= poolKeyCap {
		return nil // drop for the GC; the pool is a cache, not a ledger
	}
	p.free[key] = append(p.free[key], o)
	return nil
}

// Len reports how many retired objects the pool currently holds, across all
// keys (for tests and introspection).
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, list := range p.free {
		n += len(list)
	}
	return n
}
