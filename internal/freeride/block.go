package freeride

// Fused split-granular execution ("opt-3"). The per-element path pays three
// costs per data instance that the paper's compiled C output never would: an
// interface-dispatched Reduction call, a branch per Vec access, and a
// strategy lock/CAS acquisition per Accumulate. A Spec that sets
// BlockReduction instead hands the worker one whole split at a time: the
// kernel walks the flat row block directly and accumulates into a
// worker-local dense buffer (no synchronization), and the engine flushes
// that buffer into the shared reduction object once per split through
// robj.AccumulateBlock — one lock acquisition or CAS loop per cell-range per
// split instead of per element.

import (
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// Fused-path counters: one flush per split processed by a BlockReduction
// kernel, and the data instances those kernels covered. rows_fused and the
// per-worker freeride_worker_rows_total move together; comparing
// block_flushes against robj_updates_total shows the synchronization events
// the fusion removed.
var (
	mBlockFlushes = obs.Default.Counter("freeride_block_flushes_total",
		"worker-local dense block buffers flushed into the shared reduction object (one per split on the fused path)")
	mRowsFused = obs.Default.Counter("freeride_rows_fused_total",
		"data instances processed by split-granular BlockReduction kernels")
	mScatterFlushes = obs.Default.Counter("freeride_scatter_flushes_total",
		"worker-local hashed accumulators flushed through robj.AccumulateScattered (sparse fused path)")
)

// BlockArgs is the split-granular counterpart of ReductionArgs: one split of
// the input plus a worker-local dense accumulation buffer mirroring the
// reduction object's cells. The kernel accumulates into the buffer — via
// Accumulate for the generic form or directly through Acc() for specialized
// kernels — and the engine flushes it into the shared object after the
// kernel returns, then resets it to the operator's identity for the next
// split.
type BlockArgs struct {
	// Data holds the split's rows, row-major; len == NumRows*Cols.
	//
	// Data is a borrowed view: for zero-copy sources (RowSlicer — memory
	// sources, mapped dataset files) it aliases the source's backing storage
	// directly. Kernels must treat it as read-only and must not retain it —
	// no storing the slice (or a sub-slice) past the call, no appending to
	// it, no writing through it. Violations corrupt shared data or fault
	// after the source unmaps; frds-vet's rowalias analyzer flags them
	// statically.
	Data []float64
	// NumRows is the number of data instances in this split.
	NumRows int
	// Cols is the number of features per instance.
	Cols int
	// Begin is the global index of the split's first row.
	Begin int

	worker        int
	op            robj.Op
	groups, elems int
	acc           []float64
	hash          *cellHash
	scratch       [][]float64
}

// Row returns instance i of the split.
func (a *BlockArgs) Row(i int) []float64 {
	return a.Data[i*a.Cols : (i+1)*a.Cols]
}

// Worker reports the id of the worker thread processing this split.
func (a *BlockArgs) Worker() int { return a.worker }

// Groups reports the reduction object's group count.
func (a *BlockArgs) Groups() int { return a.groups }

// Elems reports the reduction object's elements per group.
func (a *BlockArgs) Elems() int { return a.elems }

// Acc returns the worker-local accumulation buffer: Groups()×Elems() cells,
// group-major, identity-valued on entry to the kernel. Specialized kernels
// update it directly (acc[group*Elems()+elem]) to skip Accumulate's bounds
// check and operator dispatch. Acc returns nil when the engine chose the
// hashed accumulator for this job (Config.SparseAccCells) — kernels that
// write the dense buffer directly are dense-touch by construction, so they
// should route any sparse-shaped object through Accumulate instead.
func (a *BlockArgs) Acc() []float64 { return a.acc }

// Sparse reports whether this job runs on the hashed worker-local
// accumulator instead of the dense mirror.
func (a *BlockArgs) Sparse() bool { return a.hash != nil }

// Accumulate folds v into local cell (group, elem) under the object's
// operator. Unlike ReductionArgs.Accumulate it touches only the worker-local
// buffer — no lock, no CAS — and the engine synchronizes once per split at
// flush time. The buffer is the dense cell mirror by default; when the
// reduction object is large relative to a split (Config.SparseAccCells) the
// engine degrades it to a hashed touched-cell map, and the dispatch here is
// the only place the kernel can tell the difference.
func (a *BlockArgs) Accumulate(group, elem int, v float64) {
	if group < 0 || group >= a.groups || elem < 0 || elem >= a.elems {
		panic("freeride: BlockArgs.Accumulate out of range")
	}
	i := group*a.elems + elem
	if a.hash != nil {
		a.hash.add(int32(i), v, a.op)
		return
	}
	a.acc[i] = a.op.Apply(a.acc[i], v)
}

// Scratch returns per-worker scratch buffer id of length n, reused across
// calls; same contract as ReductionArgs.Scratch.
func (a *BlockArgs) Scratch(id, n int) []float64 {
	for id >= len(a.scratch) {
		a.scratch = append(a.scratch, nil)
	}
	if cap(a.scratch[id]) < n {
		a.scratch[id] = make([]float64, n)
	}
	return a.scratch[id][:n]
}

func fillIdentity(s []float64, id float64) {
	for i := range s {
		s[i] = id
	}
}

// cellHash is the sparse counterpart of the fused path's dense accumulation
// buffer: an open-addressed map from touched cell index to accumulated value.
// Where the dense buffer costs O(cells) to identity-fill and flush every
// split, the hash costs O(touched) — the win the inspector–executor model
// needs when the reduction object (a row vector over a large sparse matrix)
// dwarfs the number of cells any one split scatters into.
//
// The sparse translator's opt-3 executor folds each CSR row run in a
// register and calls Accumulate once per run, so under it every touched
// cell is inserted once per split and add never takes the rehit branch;
// rehits come only from generic ScatterBlock kernels that accumulate per
// element in no particular order.
//
// Layout: table is the probe array holding index+1 into cells (0 = empty),
// with power-of-two capacity; cells/vals record the touched cells in first-
// touch order, which is also the flush order handed to AccumulateScattered.
// It lives in workerState, so steady-state sparse passes allocate nothing.
type cellHash struct {
	table []int32
	mask  uint32
	cells []int32
	vals  []float64
}

const cellHashMinCap = 64

func newCellHash() *cellHash {
	return &cellHash{table: make([]int32, cellHashMinCap), mask: cellHashMinCap - 1}
}

// slotFor probes for cell c and returns its table slot: either the slot
// already holding c or the first empty slot of its run.
func (h *cellHash) slotFor(c int32) uint32 {
	// Fibonacci hashing spreads the low-entropy cell indices sparse
	// executors produce (consecutive matrix rows) across the table.
	s := (uint32(c) * 0x9E3779B9) & h.mask
	for {
		ref := h.table[s]
		if ref == 0 || h.cells[ref-1] == c {
			return s
		}
		s = (s + 1) & h.mask
	}
}

// add folds v into cell c under op, inserting the cell on first touch.
// First-touch stores v directly: op.Apply(op.Identity(), v) == v by the
// operator's identity law, so no identity fill is ever needed.
func (h *cellHash) add(c int32, v float64, op robj.Op) {
	s := h.slotFor(c)
	if ref := h.table[s]; ref != 0 {
		h.vals[ref-1] = op.Apply(h.vals[ref-1], v)
		return
	}
	h.cells = append(h.cells, c)
	h.vals = append(h.vals, v)
	h.table[s] = int32(len(h.cells))
	// Grow at 3/4 load so probe runs stay short.
	if uint32(len(h.cells)) > h.mask-h.mask/4 {
		h.grow()
	}
}

func (h *cellHash) grow() {
	h.table = make([]int32, 2*len(h.table))
	h.mask = uint32(len(h.table) - 1)
	for i, c := range h.cells {
		h.table[h.slotFor(c)] = int32(i + 1)
	}
}

// reset clears the map for the next split, keeping capacity. The table is
// zeroed whole: its capacity tracks the high-water touched-cell count of the
// worker (not the object size), so the clear is proportional to real past
// work, and zeroing the probe array wholesale is the only clearing order
// that cannot orphan a displaced run member.
func (h *cellHash) reset() {
	clear(h.table)
	h.cells = h.cells[:0]
	h.vals = h.vals[:0]
}
