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
// split instead of per element. Both forms run in the same split loop; the
// only difference is the call each split gets (job.reduce). The flush sweeps
// every cell of the object, so the block path suits objects a split mostly
// touches. A kernel that already folds its values in registers and touches
// few cells of a large object (the sparse opt-3 executor, one Accumulate per
// CSR row piece) is a plain Reduction instead: its Accumulate writes
// straight through to the shared object.

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

// BlockArgs is the split-granular counterpart of ReductionArgs: the same
// split (Data, NumRows, Cols, Begin, Row, Worker, Scratch) plus a
// worker-local dense accumulation buffer mirroring the reduction object's
// cells. The kernel accumulates into the buffer — via Accumulate for the
// generic form or directly through Acc() for specialized kernels — and the
// engine flushes it into the shared object after the kernel returns, then
// resets it to the operator's identity for the next split.
type BlockArgs struct {
	ReductionArgs

	op            robj.Op
	groups, elems int
	acc           []float64
}

// Acc returns the worker-local accumulation buffer: the spec's
// Groups×Elems cells, group-major, identity-valued on entry to the kernel.
// Specialized kernels update it directly (acc[group*Elems+elem]) to skip
// Accumulate's bounds check and operator dispatch.
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

// AccumulateRange folds vals into local elements elem0 … elem0+len(vals)-1
// of group, with the range check of BlockArgs.Accumulate. It shadows
// ReductionArgs.AccumulateRange, which would write through to the shared
// object and break the one synchronization per split.
func (a *BlockArgs) AccumulateRange(group, elem0 int, vals []float64) {
	if group < 0 || group >= a.groups || elem0 < 0 || elem0 > a.elems-len(vals) {
		panic("freeride: BlockArgs.AccumulateRange out of range")
	}
	acc := a.acc[group*a.elems+elem0:][:len(vals)]
	for k, v := range vals {
		acc[k] = a.op.Apply(acc[k], v)
	}
}

func fillIdentity(s []float64, id float64) {
	for i := range s {
		s[i] = id
	}
}
