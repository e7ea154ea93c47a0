// Package cluster simulates FREERIDE's cluster-wide execution. The original
// middleware ran on clusters: each node performed local reductions over its
// portion of the dataset with the multicore engine, and "after local
// combination, the results produced by all nodes in a cluster are combined
// again to form the final result, which is the global combination phase.
// The global combination phase can be achieved by a simple all-to-one
// reduce algorithm. If the size of the reduction object is large, both
// local and global combination phases perform a parallel merge. ... the
// communication involved in the global combination phase [is] handled
// internally by the middleware and is transparent to the application
// programmer" (paper §III-A).
//
// The paper's evaluation machine is a single 8-core node, so this package
// is the substitution for the cluster hardware: N simulated nodes (each an
// independent freeride.Engine over a block partition of the dataset)
// exchange serialized reduction objects over a pluggable transport —
// in-process channels or real TCP connections on the loopback interface —
// and combine them with either the all-to-one algorithm or a binary
// combining tree. The application code is identical to single-node code,
// preserving the middleware's transparency claim.
package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// hClusterPass records end-to-end cluster pass wall time (partition through
// global combination), the cluster-level counterpart of the engine's
// freeride_pass_duration_seconds.
var hClusterPass = obs.Default.Histogram("cluster_pass_duration_seconds",
	"end-to-end cluster pass wall time (partition, node passes, global combination)")

// Transport selects how nodes exchange reduction objects during global
// combination.
type Transport int

const (
	// InProcess exchanges objects over Go channels (zero-copy handoff).
	InProcess Transport = iota
	// TCP exchanges objects as little-endian frames over loopback TCP
	// connections, exercising a real wire format and network stack.
	TCP
)

// String returns the transport name.
func (t Transport) String() string {
	switch t {
	case InProcess:
		return "in-process"
	case TCP:
		return "tcp"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// CombineAlgo selects the global combination algorithm.
type CombineAlgo int

const (
	// AllToOne sends every node's object to node 0, which folds them in
	// node order — the paper's "simple all-to-one reduce algorithm".
	AllToOne CombineAlgo = iota
	// Tree combines pairwise in ⌈log2 N⌉ rounds — the scalable variant for
	// large reduction objects.
	Tree
)

// String returns the algorithm name.
func (a CombineAlgo) String() string {
	switch a {
	case AllToOne:
		return "all-to-one"
	case Tree:
		return "tree"
	default:
		return fmt.Sprintf("combine(%d)", int(a))
	}
}

// Config describes the simulated cluster.
type Config struct {
	// Nodes is the node count. Defaults to 2.
	Nodes int
	// PerNode configures each node's multicore engine.
	PerNode freeride.Config
	// Transport selects the exchange mechanism. Default InProcess.
	Transport Transport
	// Combine selects the global combination algorithm. Default AllToOne.
	Combine CombineAlgo

	// DialTimeout bounds each TCP dial during global combination; failed
	// dials are retried DialRetries times with exponential backoff. Default
	// 2s.
	DialTimeout time.Duration
	// DialRetries is the number of re-dials after a failed dial. Default 2;
	// pass a negative value for no retries.
	DialRetries int
	// IOTimeout bounds each serialized-object exchange (send, accept, and
	// receive all get this deadline), so a wedged peer fails the combination
	// instead of hanging it. Default 10s.
	IOTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Nodes < 1 {
		c.Nodes = 2
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.DialRetries < 0 {
		c.DialRetries = 0
	} else if c.DialRetries == 0 {
		c.DialRetries = 2
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 10 * time.Second
	}
	return c
}

// Stats describes one cluster run.
type Stats struct {
	// Job is the coordinator-minted job id every node engine pass ran
	// under; the run's event-log entry and counter deltas carry it.
	Job obs.JobID
	// NodeRows is the number of data instances each node processed.
	NodeRows []int
	// BytesMoved is the serialized reduction-object volume exchanged
	// during global combination (0 for the in-process transport).
	BytesMoved int64
	// Rounds is the number of combination rounds (1 for all-to-one).
	Rounds int
	// Spans is the merged node-attributed timeline: the coordinator's own
	// spans plus every node pass's spans re-based onto the coordinator
	// clock, each tagged with its node id. Also flushed to obs.Log under
	// Job.
	Spans []obs.SpanRecord
	// NodeDeltas holds each node pass's exact counter deltas, indexed by
	// node — the same payload published process-wide under the
	// cluster_node_ prefix with a node label.
	NodeDeltas [][]obs.MetricDelta
}

// Result is the cluster-wide reduction outcome.
type Result struct {
	// Object is the globally combined reduction object.
	Object *robj.Object
	// Stats describes the run.
	Stats Stats
}

// ErrClusterClosed reports a pass on a cluster whose session has been closed.
var ErrClusterClosed = errors.New("cluster: cluster is closed")

// Cluster executes FREERIDE specs across simulated nodes. Like the engine it
// is built on, a Cluster is a session: each node's freeride.Engine (and its
// worker pool, scheduler pool, and reduction-object pool) is created on the
// first pass and reused by every subsequent one, and with the TCP transport
// the global-combination connections are dialed once and kept for the
// cluster's lifetime. Close releases all of it; a closed cluster rejects
// further passes.
type Cluster struct {
	cfg Config

	mu      sync.Mutex
	closed  bool
	engines []*freeride.Engine

	meshMu sync.Mutex
	mesh   *tcpMesh

	// runMu serializes TCP passes end to end: the announce and combine
	// frames of one pass must not interleave with another's on the shared
	// connections.
	runMu sync.Mutex

	// nodeNames are the coordinator's per-node span names.
	nodeNames []string

	// ctrMu guards the session's cluster_node_ counter cache: nodeCtrs maps
	// a node plus a delta's name and labels to its registry counter, and
	// ctrKey is the buffer those keys are built in.
	ctrMu    sync.Mutex
	nodeCtrs map[string]*obs.Counter
	ctrKey   []byte
}

// New creates a cluster session. Node engines start lazily on the first pass.
func New(cfg Config) *Cluster {
	c := &Cluster{cfg: cfg.withDefaults()}
	c.nodeNames = make([]string, c.cfg.Nodes)
	for n := range c.nodeNames {
		c.nodeNames[n] = "node-" + strconv.Itoa(n)
	}
	return c
}

// nodeEngines returns the session's per-node engines, creating them on
// first use.
func (c *Cluster) nodeEngines() ([]*freeride.Engine, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClusterClosed
	}
	if c.engines == nil {
		c.engines = make([]*freeride.Engine, c.cfg.Nodes)
		for n := range c.engines {
			c.engines[n] = freeride.New(c.cfg.PerNode)
		}
	}
	return c.engines, nil
}

// Close ends the cluster session: every node engine's worker pool is drained
// and the persistent combination connections are torn down. Close is
// idempotent and safe on a cluster that never ran.
func (c *Cluster) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	engines := c.engines
	c.mu.Unlock()
	var first error
	for _, eng := range engines {
		if err := eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.meshMu.Lock()
	mesh := c.mesh
	c.mesh = nil
	c.meshMu.Unlock()
	if mesh != nil {
		mesh.close()
	}
	return first
}

// Release returns a finished cluster Result's combined reduction object to
// the root node engine's session pool, mirroring freeride.Engine.Release.
// After Release the caller must not touch the object; releasing a nil result
// (or one already released) is a no-op.
func (c *Cluster) Release(res *Result) error {
	if res == nil || res.Object == nil {
		return nil
	}
	c.mu.Lock()
	var root *freeride.Engine
	if len(c.engines) > 0 {
		root = c.engines[0]
	}
	c.mu.Unlock()
	if root == nil {
		// No session engines exist, so there is no pool to return to.
		res.Object = nil
		return nil
	}
	fr := &freeride.Result{Object: res.Object}
	res.Object = nil
	return root.Release(fr)
}

// subSource exposes a contiguous row range of an underlying source as a
// node's local dataset. Reads route through a Reader resolved once at
// construction instead of re-probing the source's capabilities per call.
type subSource struct {
	src      dataset.Source
	rd       dataset.Reader
	lo, rows int
}

// NumRows implements dataset.Source.
func (s *subSource) NumRows() int { return s.rows }

// Cols implements dataset.Source.
func (s *subSource) Cols() int { return s.src.Cols() }

// ReadRows implements dataset.Source.
func (s *subSource) ReadRows(begin, end int, dst []float64) error {
	if begin < 0 || end > s.rows || begin > end {
		return fmt.Errorf("cluster: ReadRows range [%d,%d) out of [0,%d)", begin, end, s.rows)
	}
	return s.src.ReadRows(s.lo+begin, s.lo+end, dst)
}

// ReadRowsContext implements dataset.ContextSource, forwarding the caller's
// context to the underlying source when it supports cancellation.
func (s *subSource) ReadRowsContext(ctx context.Context, begin, end int, dst []float64) error {
	if begin < 0 || end > s.rows || begin > end {
		return fmt.Errorf("cluster: ReadRows range [%d,%d) out of [0,%d)", begin, end, s.rows)
	}
	return s.rd.ReadInto(ctx, s.lo+begin, s.lo+end, dst)
}

// slicingSubSource adds the zero-copy fast path on top of subSource. It is a
// separate type so that a plain subSource over a non-slicing source (a fault
// or retry wrapper, a file) does not claim dataset.RowSlicer it cannot honor
// — the engine type-asserts on the node source, and a false claim panics
// inside the worker loop.
type slicingSubSource struct{ *subSource }

// Rows implements dataset.RowSlicer.
func (s slicingSubSource) Rows(begin, end int) []float64 {
	return s.src.(dataset.RowSlicer).Rows(s.lo+begin, s.lo+end)
}

// partition returns each node's [lo, hi) row range (block partition, the
// distribution FREERIDE's splitter assumes: "the data instances owned by a
// processor").
func partition(totalRows, nodes int) [][2]int {
	out := make([][2]int, nodes)
	base, extra := totalRows/nodes, totalRows%nodes
	lo := 0
	for i := 0; i < nodes; i++ {
		size := base
		if i < extra {
			size++
		}
		out[i] = [2]int{lo, lo + size}
		lo += size
	}
	return out
}

// nodeSource wraps the node's row range, preserving the zero-copy fast
// path when available.
func nodeSource(src dataset.Source, lo, hi int) dataset.Source {
	sub := &subSource{src: src, rd: dataset.NewReader(src), lo: lo, rows: hi - lo}
	if _, ok := src.(dataset.RowSlicer); ok {
		return slicingSubSource{sub}
	}
	return sub
}

// offsetSpec makes a node pass see global row indices: the engine's Begin
// is node-local, so both kernel forms are wrapped to add the node's base
// offset to it for the duration of each call. Kernels that index by Begin
// (translated fused kernels, sparse executors) then read their own rows,
// not node 0's.
func offsetSpec(spec freeride.Spec, base int) freeride.Spec {
	if inner := spec.Reduction; inner != nil {
		spec.Reduction = func(args *freeride.ReductionArgs) error {
			args.Begin += base
			err := inner(args)
			args.Begin -= base
			return err
		}
	}
	if inner := spec.BlockReduction; inner != nil {
		spec.BlockReduction = func(args *freeride.BlockArgs) error {
			args.Begin += base
			err := inner(args)
			args.Begin -= base
			return err
		}
	}
	return spec
}

// nodePass is one node's share of a cluster pass: the job id it ran under,
// what its engine pass returned, and what the coordinator needs to merge its
// spans and deltas. A pass keeps every node's in one slice.
type nodePass struct {
	job    obs.JobID
	res    *freeride.Result
	err    error
	span   int64         // coordinator span the node's spans nest under
	offset time.Duration // node pass start on the coordinator clock
	spans  []obs.SpanRecord
	deltas []obs.MetricDelta
}

// RunContext executes the spec over the dataset across the simulated
// cluster: block-partition, per-node multicore reduction, then global
// combination over the configured transport. The spec's Finalize hook, if
// any, runs once on the combined result, mirroring single-node semantics.
// Every node's engine pass inherits ctx (so one cancellation stops all
// nodes' workers), and a cancelled cluster run returns ctx.Err() without
// entering global combination.
func (c *Cluster) RunContext(ctx context.Context, spec freeride.Spec, src dataset.Source) (*Result, error) {
	if src == nil {
		return nil, errors.New("cluster: nil data source")
	}
	totalRows := src.NumRows()
	if ctx == nil {
		ctx = context.Background()
	}
	if spec.Reduction == nil && spec.BlockReduction == nil {
		return nil, freeride.ErrNoReduction
	}
	cfg := c.cfg
	engines, err := c.nodeEngines()
	if err != nil {
		return nil, err
	}
	parts := partition(totalRows, cfg.Nodes)

	// Coordinator-side observability: one job id spans the whole cluster
	// pass, and the coordinator trace becomes the spine every node pass's
	// spans are merged onto.
	job := obs.NextJobID()
	passStart := time.Now()
	tr := obs.NewTrace()
	runSpan := tr.Start("cluster-run")
	finishTrace := func() {
		runSpan.End()
		hClusterPass.ObserveDuration(time.Since(passStart))
	}
	nodes := make([]nodePass, cfg.Nodes)
	// fail ends a pass that returns no result: the partial timeline goes to
	// the event log, and every node result that did finish goes back to its
	// engine's pool, so a failed pass costs the next one no fresh object.
	fail := func(err error) (*Result, error) {
		finishTrace()
		obs.Log.AddRun(job, tr.Finish())
		for n := range nodes {
			if rerr := engines[n].Release(nodes[n].res); rerr != nil {
				err = errors.Join(err, rerr)
			}
		}
		return nil, err
	}

	// Distributed trace propagation: on the TCP transport the job id is
	// announced to every node over the mesh before the node passes start, so
	// each node's engine pass runs under the id it actually received off the
	// wire. The in-process transport hands the id over directly. The whole
	// TCP pass holds runMu so announce and combine frames of concurrent
	// passes never interleave on the shared connections.
	for n := range nodes {
		nodes[n].job = job
	}
	useMesh := cfg.Transport == TCP && cfg.Nodes > 1
	var mesh *tcpMesh
	if useMesh {
		c.runMu.Lock()
		defer c.runMu.Unlock()
		mesh, err = c.ensureMesh()
		if err != nil {
			return fail(err)
		}
		aSpan := runSpan.Child("announce")
		got, aerr := mesh.announce(job, cfg)
		aSpan.End()
		if aerr != nil {
			c.dropMesh(mesh)
			return fail(aerr)
		}
		for n := range nodes {
			nodes[n].job = got[n]
		}
	}

	// Per-node local reduction on the session's persistent node engines.
	// Each node gets a coordinator span and a clock offset captured at
	// launch, so its shipped spans can be re-based onto the coordinator
	// timeline afterwards.
	finalize := spec.Finalize
	spec.Finalize = nil
	var wg sync.WaitGroup
	for n := range nodes {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			np := &nodes[n]
			nSpan := runSpan.Child(c.nodeNames[n])
			np.span = nSpan.ID()
			np.offset = tr.Elapsed()
			defer nSpan.End()
			lo, hi := parts[n][0], parts[n][1]
			np.res, np.err = engines[n].RunContext(obs.WithJob(ctx, np.job), offsetSpec(spec, lo), nodeSource(src, lo, hi))
		}(n)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	for n := range nodes {
		if err := nodes[n].err; err != nil {
			return fail(err)
		}
		nodes[n].spans = nodes[n].res.Stats.Spans
		nodes[n].deltas = nodes[n].res.Stats.JobDeltas
	}

	// Global combination over the transport. The TCP path ships each node's
	// spans and counter deltas with its object frame, and the root merges
	// what it read off the wire; the in-process path hands them over
	// directly.
	gSpan := runSpan.Child(freeride.PhaseGlobalCombine)
	var (
		combined *robj.Object
		moved    int64
		rounds   int
	)
	if useMesh {
		var shipped []wireObject
		combined, shipped, moved, rounds, err = mesh.combine(nodes, cfg.Combine, cfg)
		if err != nil {
			c.dropMesh(mesh)
		} else {
			for n := 1; n < cfg.Nodes; n++ {
				nodes[n].spans = shipped[n].Spans
				nodes[n].deltas = shipped[n].Deltas
			}
		}
	} else {
		combined, moved, rounds, err = combineInProcess(nodes, cfg.Combine)
	}
	gSpan.End()
	if err != nil {
		return fail(err)
	}
	// Both algorithms fold into the root's object, so the non-root objects
	// are spent; return them to their node engines' pools for the next pass.
	for n := 1; n < cfg.Nodes; n++ {
		if rerr := engines[n].Release(nodes[n].res); rerr != nil {
			return fail(rerr)
		}
	}

	res := &Result{Object: combined}
	res.Stats.Job = job
	res.Stats.NodeRows = make([]int, cfg.Nodes)
	res.Stats.NodeDeltas = make([][]obs.MetricDelta, cfg.Nodes)
	for n := range nodes {
		res.Stats.NodeRows[n] = parts[n][1] - parts[n][0]
		res.Stats.NodeDeltas[n] = nodes[n].deltas
	}
	res.Stats.BytesMoved = moved
	res.Stats.Rounds = rounds

	if finalize != nil {
		fr := &freeride.Result{Object: combined}
		if err := finalize(fr); err != nil {
			return fail(err)
		}
	}

	// Merge the node timelines onto the coordinator trace (node spans keep
	// their internal structure, re-based and re-parented under their node's
	// coordinator span) and publish each node's counter deltas under the
	// node-labeled cluster_node_ view. The merge copies the shipped spans,
	// which on the TCP path are the mesh's scratch, into the result's own
	// timeline.
	finishTrace()
	sets := make([]obs.NodeSpans, cfg.Nodes)
	for n := range nodes {
		sets[n] = obs.NodeSpans{Node: n, Offset: nodes[n].offset, Parent: nodes[n].span, Spans: nodes[n].spans}
	}
	res.Stats.Spans = obs.MergeNodeSpans(tr.Finish(), sets)
	obs.Log.AddRun(job, res.Stats.Spans)
	for n := range nodes {
		c.publishNodeDeltas(n, nodes[n].deltas)
	}
	return res, nil
}

// nodeCounterHelp is the help text of every cluster_node_ family.
const nodeCounterHelp = "per-node counter delta shipped from a node engine pass"

// publishNodeDeltas folds one node's shipped counter deltas into the
// process registry under cluster_node_<name>{<labels>,node="<n>"}. The
// prefix keeps the node-attributed view a separate family from the
// process-wide counters the in-process node engines also increment, so sums
// over either family never double-count. Each counter is resolved once per
// session and cached under a key built without rendering its labels.
func (c *Cluster) publishNodeDeltas(node int, deltas []obs.MetricDelta) {
	c.ctrMu.Lock()
	defer c.ctrMu.Unlock()
	for _, d := range deltas {
		c.nodeCounter(node, d).Add(d.Value)
	}
}

// nodeCounter returns the cached cluster_node_ counter for node's delta d,
// resolving it on first use. The caller holds ctrMu.
func (c *Cluster) nodeCounter(node int, d obs.MetricDelta) *obs.Counter {
	// The key is the node and every string length-prefixed, so distinct
	// deltas never share one.
	k := binary.AppendUvarint(c.ctrKey[:0], uint64(node))
	k = appendKeyString(k, d.Name)
	for _, l := range d.Labels {
		k = appendKeyString(appendKeyString(k, l.Key), l.Value)
	}
	c.ctrKey = k
	if ctr, ok := c.nodeCtrs[string(k)]; ok {
		return ctr
	}
	labels := append(append(make([]obs.Label, 0, len(d.Labels)+1), d.Labels...),
		obs.Label{Key: "node", Value: strconv.Itoa(node)})
	ctr := obs.Default.Counter("cluster_node_"+d.Name, nodeCounterHelp, labels...)
	if c.nodeCtrs == nil {
		c.nodeCtrs = make(map[string]*obs.Counter)
	}
	c.nodeCtrs[string(k)] = ctr
	return ctr
}

// ensureMesh returns the session's persistent connection mesh, establishing
// it on first use. The mesh now exists before the node passes run, because
// the pre-pass job announce travels over it. A mesh that latched broken on a
// failed announce/combine frame is never handed back: its connections are
// out of step, so it is torn down here and rebuilt from scratch even if the
// pass that broke it failed to call dropMesh.
func (c *Cluster) ensureMesh() (*tcpMesh, error) {
	c.meshMu.Lock()
	defer c.meshMu.Unlock()
	if c.mesh != nil && c.mesh.broken.Load() {
		c.mesh.close()
		c.mesh = nil
	}
	if c.mesh == nil {
		mesh, err := newTCPMesh(c.cfg.Nodes, c.cfg)
		if err != nil {
			return nil, err
		}
		c.mesh = mesh
	}
	return c.mesh, nil
}

// dropMesh discards a mesh whose connections are out of step (a failed
// announce or combine); the next pass re-dials from scratch — PR 2's
// per-call timeout and dial-retry semantics apply to that re-dial as they
// did to the original.
func (c *Cluster) dropMesh(mesh *tcpMesh) {
	c.meshMu.Lock()
	if c.mesh == mesh {
		c.mesh = nil
	}
	c.meshMu.Unlock()
	mesh.close()
}

func appendKeyString(k []byte, s string) []byte {
	return append(binary.AppendUvarint(k, uint64(len(s))), s...)
}

// combineInProcess folds the nodes' objects without serialization.
func combineInProcess(nodes []nodePass, algo CombineAlgo) (*robj.Object, int64, int, error) {
	objects := make([]*robj.Object, len(nodes))
	for n := range nodes {
		objects[n] = nodes[n].res.Object
	}
	switch algo {
	case Tree:
		rounds := 0
		live := objects
		for len(live) > 1 {
			rounds++
			next := make([]*robj.Object, 0, (len(live)+1)/2)
			var wg sync.WaitGroup
			errs := make([]error, len(live)/2)
			for i := 0; i+1 < len(live); i += 2 {
				next = append(next, live[i])
				wg.Add(1)
				go func(slot int, dst, src *robj.Object) {
					defer wg.Done()
					errs[slot] = dst.CombineFrom(src)
				}(i/2, live[i], live[i+1])
			}
			if len(live)%2 == 1 {
				next = append(next, live[len(live)-1])
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return nil, 0, 0, err
				}
			}
			live = next
		}
		return live[0], 0, rounds, nil
	default: // AllToOne
		dst := objects[0]
		for _, o := range objects[1:] {
			if err := dst.CombineFrom(o); err != nil {
				return nil, 0, 0, err
			}
		}
		rounds := 0
		if len(objects) > 1 {
			rounds = 1
		}
		return dst, 0, rounds, nil
	}
}
