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
// split instead of per element. The flush sweeps every cell of the object,
// so the block path suits objects a split mostly touches. A kernel that
// already folds its values in registers and touches few cells of a large
// object (the sparse opt-3 executor, one Accumulate per CSR row piece) is a
// plain Reduction instead: the engine hands Reduction one whole split too,
// and its Accumulate writes straight through to the shared object.

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
// check and operator dispatch.
func (a *BlockArgs) Acc() []float64 { return a.acc }

// Accumulate folds v into local cell (group, elem) under the object's
// operator. Unlike ReductionArgs.Accumulate it touches only the worker-local
// buffer — no lock, no CAS — and the engine synchronizes once per split at
// flush time.
func (a *BlockArgs) Accumulate(group, elem int, v float64) {
	if group < 0 || group >= a.groups || elem < 0 || elem >= a.elems {
		panic("freeride: BlockArgs.Accumulate out of range")
	}
	i := group*a.elems + elem
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
