package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// Transport robustness and session counters: dial attempts that had to be
// retried, exchanges that timed out against the per-call deadline, mesh
// connections dialed, and combines served over already-established
// connections (dialed vs reused quantifies what the persistent mesh saves).
var (
	mDialRetries = obs.Default.Counter("cluster_dial_retries_total",
		"TCP dials retried during global combination")
	mIOTimeouts = obs.Default.Counter("cluster_io_timeouts_total",
		"global-combination exchanges that hit the per-call deadline")
	mConnsDialed = obs.Default.Counter("cluster_conns_dialed_total",
		"TCP connections dialed for the global-combination mesh")
	mConnReuses = obs.Default.Counter("cluster_conn_reuses_total",
		"global-combination exchanges served over an already-established connection")
	mMeshBroken = obs.Default.Counter("cluster_mesh_breaks_total",
		"mesh teardowns forced by a failed announce/combine frame (half-read or half-written frames)")
)

// The combination mesh speaks length-prefixed little-endian frames. Each
// connection end encodes into one buffer it reuses and sends a frame with a
// single Write; it reads into another reused buffer. All integers are
// little-endian; varint and uvarint are encoding/binary's.
//
//	frame    = u32 size | u8 kind | body    size counts kind and body
//	hello    = u32 node                     node → root, once per connection
//	announce = u64 job                      root → node, before every pass
//	object   = u32 node | u64 job | u32 groups | u32 elems | u8 op | u32 cells
//	           cells × u64                  the float64 bits of each cell
//	           uvarint spans,  then per span:  str name, varint id, parent,
//	                                           worker, node, start, dur
//	           uvarint deltas, then per delta: str name, uvarint labels,
//	                                           per label str key, str value;
//	                                           varint value
//	str      = uvarint 0, uvarint len, bytes    a literal
//	         | uvarint i+1                      entry i of the string table
//
// Both ends of a connection keep a string table: a literal of at most
// internMaxLen bytes joins it while it holds fewer than internMax entries,
// so span and metric names cross the wire once per session and decode
// without allocating. A reader refuses an object frame larger than the root
// object's cells plus obsAllowance before reading its body, and checks every
// count against the bytes left in the frame before it allocates.
const (
	frameHello    = 1
	frameAnnounce = 2
	frameObject   = 3

	// frameHeadLen is the size field plus the kind byte.
	frameHeadLen = 5
	// objectHeadLen is an object frame's fixed header: node, job, groups,
	// elems, op, cells.
	objectHeadLen = 4 + 8 + 4 + 4 + 1 + 4
	// obsAllowance bounds the spans and deltas one object frame may carry.
	// A pass records a handful of spans plus one per worker and about ten
	// deltas — a few hundred bytes.
	obsAllowance = 64 << 10

	internMax    = 256
	internMaxLen = 64

	// The fewest bytes a span, a delta and a label can take on the wire:
	// a one-byte str tag plus one-byte varints.
	minSpanLen  = 7
	minDeltaLen = 3
	minLabelLen = 2
)

// objectFrameMax is the largest object frame body (kind byte included) a
// root accepts when its own object has cells cells.
func objectFrameMax(cells int) int { return 1 + objectHeadLen + 8*cells + obsAllowance }

// wireObject is one node's pass outcome as an object frame carries it: the
// merged reduction object's shape and cells plus the pass's observability
// payload — the node engine's span records and exact per-job counter
// deltas — so the coordinator can assemble a node-attributed timeline and
// per-node metric view without any side channel.
type wireObject struct {
	Node   int
	Job    uint64
	Groups int
	Elems  int
	Op     robj.Op
	Cells  []float64
	Spans  []obs.SpanRecord
	Deltas []obs.MetricDelta
}

// frameWriter encodes the frames one connection end sends. The buffer and
// the string table live as long as the connection.
type frameWriter struct {
	buf   []byte
	names map[string]uint64 // string → its table tag (index + 1)
}

func (w *frameWriter) begin(kind byte) { w.buf = append(w.buf[:0], 0, 0, 0, 0, kind) }

// end fills in the size field and returns the finished frame, valid until
// the next frame is encoded.
func (w *frameWriter) end() []byte {
	binary.LittleEndian.PutUint32(w.buf, uint32(len(w.buf)-4))
	return w.buf
}

func (w *frameWriter) hello(node int) []byte {
	w.begin(frameHello)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(node))
	return w.end()
}

func (w *frameWriter) announce(job obs.JobID) []byte {
	w.begin(frameAnnounce)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(job))
	return w.end()
}

func (w *frameWriter) object(o *wireObject) []byte {
	w.begin(frameObject)
	le := binary.LittleEndian
	b := le.AppendUint32(w.buf, uint32(o.Node))
	b = le.AppendUint64(b, o.Job)
	b = le.AppendUint32(b, uint32(o.Groups))
	b = le.AppendUint32(b, uint32(o.Elems))
	b = append(b, byte(o.Op))
	b = le.AppendUint32(b, uint32(len(o.Cells)))
	for _, v := range o.Cells {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.AppendUvarint(b, uint64(len(o.Spans)))
	for i := range o.Spans {
		s := &o.Spans[i]
		b = w.str(b, s.Name)
		b = binary.AppendVarint(b, s.ID)
		b = binary.AppendVarint(b, s.Parent)
		b = binary.AppendVarint(b, int64(s.Worker))
		b = binary.AppendVarint(b, int64(s.Node))
		b = binary.AppendVarint(b, int64(s.Start))
		b = binary.AppendVarint(b, int64(s.Dur))
	}
	b = binary.AppendUvarint(b, uint64(len(o.Deltas)))
	for _, d := range o.Deltas {
		b = w.str(b, d.Name)
		b = binary.AppendUvarint(b, uint64(len(d.Labels)))
		for _, l := range d.Labels {
			b = w.str(b, l.Key)
			b = w.str(b, l.Value)
		}
		b = binary.AppendVarint(b, d.Value)
	}
	w.buf = b
	return w.end()
}

// str appends s as a table reference when the table holds it, as a literal
// (entering the table when it qualifies) otherwise.
func (w *frameWriter) str(b []byte, s string) []byte {
	if tag, ok := w.names[s]; ok {
		return binary.AppendUvarint(b, tag)
	}
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	if len(s) <= internMaxLen && len(w.names) < internMax {
		if w.names == nil {
			w.names = make(map[string]uint64)
		}
		w.names[s] = uint64(len(w.names)) + 1
	}
	return b
}

// frameReader decodes the frames arriving on one connection end. The body
// buffer, the string table and the scratch an object's cells and spans
// decode into are reused frame after frame, so a decoded object's Cells and
// Spans are valid until the next read; its Deltas are allocated per frame,
// because they outlive the pass in Stats.NodeDeltas.
type frameReader struct {
	r     io.Reader
	head  [frameHeadLen]byte
	body  []byte
	names []string
	cells []float64
	spans []obs.SpanRecord
}

var errFrameShort = errors.New("cluster: malformed frame: a count or field runs past the end of the frame")

// read reads the next frame, which must be of the given kind with a body of
// at most max bytes (kind byte included), into the reused body buffer. The
// size is checked before any of the body is read.
func (r *frameReader) read(kind byte, max int) ([]byte, error) {
	if _, err := io.ReadFull(r.r, r.head[:]); err != nil {
		return nil, err
	}
	size := uint64(binary.LittleEndian.Uint32(r.head[:4]))
	if size == 0 || size > uint64(max) {
		return nil, fmt.Errorf("cluster: frame of %d bytes is outside (0, %d]", size, max)
	}
	if r.head[4] != kind {
		return nil, fmt.Errorf("cluster: frame of kind %d where kind %d was due", r.head[4], kind)
	}
	n := int(size) - 1
	if cap(r.body) < n {
		r.body = make([]byte, n)
	}
	body := r.body[:n]
	if _, err := io.ReadFull(r.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

func (r *frameReader) readHello() (int, error) {
	body, err := r.read(frameHello, 1+4)
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, errFrameShort
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

func (r *frameReader) readAnnounce() (obs.JobID, error) {
	body, err := r.read(frameAnnounce, 1+8)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, errFrameShort
	}
	return obs.JobID(binary.LittleEndian.Uint64(body)), nil
}

// readObject decodes the next object frame into w. maxCells is the root
// object's cell count, which with obsAllowance bounds the frame.
func (r *frameReader) readObject(w *wireObject, maxCells int) error {
	body, err := r.read(frameObject, objectFrameMax(maxCells))
	if err != nil {
		return err
	}
	c := frameCursor{b: body}
	w.Node = int(c.u32())
	w.Job = c.u64()
	w.Groups = int(c.u32())
	w.Elems = int(c.u32())
	w.Op = robj.Op(c.u8())
	cells := c.count(uint64(c.u32()), 8)
	r.cells = resize(r.cells, cells)
	for i := range r.cells {
		r.cells[i] = math.Float64frombits(c.u64())
	}
	w.Cells = r.cells

	spans := c.count(c.uvarint(), minSpanLen)
	r.spans = resize(r.spans, spans)
	for i := range r.spans {
		s := &r.spans[i]
		s.Name = c.str(&r.names)
		s.ID = c.varint()
		s.Parent = c.varint()
		s.Worker = int(c.varint())
		s.Node = int(c.varint())
		s.Start = time.Duration(c.varint())
		s.Dur = time.Duration(c.varint())
	}
	w.Spans = r.spans

	w.Deltas = nil
	if deltas := c.count(c.uvarint(), minDeltaLen); deltas > 0 {
		w.Deltas = make([]obs.MetricDelta, deltas)
	}
	for i := range w.Deltas {
		d := &w.Deltas[i]
		d.Name = c.str(&r.names)
		if labels := c.count(c.uvarint(), minLabelLen); labels > 0 {
			d.Labels = make([]obs.Label, labels)
		}
		for j := range d.Labels {
			d.Labels[j] = obs.Label{Key: c.str(&r.names), Value: c.str(&r.names)}
		}
		d.Value = c.varint()
	}
	if c.err == nil && len(c.b) != 0 {
		c.err = fmt.Errorf("cluster: malformed frame: %d bytes past the last field", len(c.b))
	}
	return c.err
}

// resize returns s with length n, reusing its storage when it is large
// enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// frameCursor walks one frame body. Every read checks the bytes left first;
// the first shortfall latches err and later reads return zero values.
type frameCursor struct {
	b   []byte
	err error
}

func (c *frameCursor) take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if len(c.b) < n {
		c.err = errFrameShort
		return nil
	}
	p := c.b[:n]
	c.b = c.b[n:]
	return p
}

func (c *frameCursor) u8() byte {
	if p := c.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (c *frameCursor) u32() uint32 {
	if p := c.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (c *frameCursor) u64() uint64 {
	if p := c.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (c *frameCursor) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.err = errFrameShort
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *frameCursor) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.err = errFrameShort
		return 0
	}
	c.b = c.b[n:]
	return v
}

// count vets a count of records that take at least min bytes each against
// the bytes left, so no count can make the reader allocate more than the
// frame could hold.
func (c *frameCursor) count(n uint64, min int) int {
	if c.err != nil {
		return 0
	}
	if n > uint64(len(c.b)/min) {
		c.err = errFrameShort
		return 0
	}
	return int(n)
}

// str reads a str field, resolving table references and entering qualifying
// literals into the table exactly as the writer did.
func (c *frameCursor) str(names *[]string) string {
	tag := c.uvarint()
	if c.err != nil {
		return ""
	}
	if tag > 0 {
		if tag > uint64(len(*names)) {
			c.err = fmt.Errorf("cluster: malformed frame: string %d of a %d-entry table", tag, len(*names))
			return ""
		}
		return (*names)[tag-1]
	}
	p := c.take(c.count(c.uvarint(), 1))
	if c.err != nil {
		return ""
	}
	s := string(p)
	if len(s) <= internMaxLen && len(*names) < internMax {
		*names = append(*names, s)
	}
	return s
}

// dialRetry dials addr with the configured per-attempt timeout, retrying
// with exponential backoff up to cfg.DialRetries extra attempts.
func dialRetry(addr string, cfg Config) (net.Conn, error) {
	backoff := 5 * time.Millisecond
	var err error
	for attempt := 0; ; attempt++ {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, cfg.DialTimeout)
		if err == nil {
			return conn, nil
		}
		if attempt >= cfg.DialRetries {
			return nil, err
		}
		mDialRetries.Inc()
		time.Sleep(backoff)
		backoff *= 2
	}
}

// isTimeout reports whether err is a network timeout (deadline exceeded).
func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}

// meshLink is one non-root node's connection to the root. The simulation
// runs both ends in this process: the node end sends the hello and the
// object frames and reads the announces; the root end does the reverse.
type meshLink struct {
	node, root       net.Conn
	nodeOut, rootOut frameWriter
	nodeIn, rootIn   frameReader
}

// tcpMesh is the persistent global-combination fabric for a TCP cluster
// session: node 0 listens once, every other node dials in once, and the
// resulting connections — with their buffers and string tables, so names
// cross the wire a single time — are reused by every combination the
// session performs. The one-shot engine re-listened and re-dialed per pass;
// for iterative algorithms that connection setup dominated small-object
// combines. Each exchange still gets a fresh cfg.IOTimeout deadline, so a
// wedged peer fails the pass promptly; a failed combine tears the mesh down
// and the next pass re-dials from scratch.
type tcpMesh struct {
	n int

	// mu serializes exchanges: each connection carries one frame per
	// direction per pass, and the per-exchange state below is reused.
	mu   sync.Mutex
	used bool

	// broken latches on the first announce/combine frame error. A
	// connection that failed mid-frame is out of step: reusing it would
	// read the rest of a half-sent frame as the next one and poison every
	// later pass with errors far from the original fault. The mesh
	// therefore refuses all further exchanges once broken, so even a caller
	// that forgets to discard it gets a clean, attributable error and
	// ensureMesh rebuilds the fabric on the next pass.
	broken atomic.Bool

	// links is indexed by node id; slot 0 (the root) is unused.
	links []meshLink

	// Per-exchange state, indexed by node and reused every pass under mu:
	// the job ids the nodes read, the objects the root read, the bytes
	// each node sent, and each side's error.
	jobs     []obs.JobID
	objs     []wireObject
	sent     []int64
	sendErrs []error
	recvErrs []error
	wg       sync.WaitGroup
}

// newTCPMesh establishes the session's combination fabric: a loopback
// listener on the root, one dial per non-root node (with the configured
// retry budget), and a hello frame per connection so the root maps
// connections to node ids regardless of accept order. The listener closes
// once the mesh is fully connected — a lost connection is repaired by
// rebuilding the whole mesh, not by re-accepting.
func newTCPMesh(n int, cfg Config) (*tcpMesh, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	m := &tcpMesh{
		n:        n,
		links:    make([]meshLink, n),
		jobs:     make([]obs.JobID, n),
		objs:     make([]wireObject, n),
		sent:     make([]int64, n),
		sendErrs: make([]error, n),
		recvErrs: make([]error, n),
	}

	var dialers sync.WaitGroup
	dialErrs := make([]error, n)
	for node := 1; node < n; node++ {
		dialers.Add(1)
		go func(node int) {
			defer dialers.Done()
			conn, err := dialRetry(addr, cfg)
			if err != nil {
				dialErrs[node] = fmt.Errorf("cluster: node %d dial: %w", node, err)
				return
			}
			mConnsDialed.Inc()
			l := &m.links[node]
			conn.SetDeadline(time.Now().Add(cfg.IOTimeout))
			if _, err := conn.Write(l.nodeOut.hello(node)); err != nil {
				conn.Close()
				dialErrs[node] = fmt.Errorf("cluster: node %d hello: %w", node, err)
				return
			}
			conn.SetDeadline(time.Time{})
			l.node = conn
			l.nodeIn = frameReader{r: conn}
		}(node)
	}

	var acceptErr error
	deadline := time.Now().Add(cfg.IOTimeout)
	for i := 1; i < n; i++ {
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			if isTimeout(err) {
				mIOTimeouts.Inc()
			}
			acceptErr = fmt.Errorf("cluster: accept: %w", err)
			break
		}
		conn.SetDeadline(deadline)
		in := frameReader{r: conn}
		node, err := in.readHello()
		if err != nil {
			conn.Close()
			acceptErr = fmt.Errorf("cluster: hello: %w", err)
			break
		}
		if node < 1 || node >= n || m.links[node].root != nil {
			conn.Close()
			acceptErr = fmt.Errorf("cluster: unexpected hello from node %d", node)
			break
		}
		conn.SetDeadline(time.Time{})
		m.links[node].root = conn
		m.links[node].rootIn = in
	}
	dialers.Wait()
	if acceptErr == nil {
		acceptErr = errors.Join(dialErrs...)
	}
	if acceptErr != nil {
		m.close()
		return nil, acceptErr
	}
	return m, nil
}

// errMeshBroken reports an exchange attempted on a mesh whose connections
// were put out of step by an earlier failed frame. It always signals a
// caller bug (the pass that hit the original fault should have discarded the
// mesh), but it fails that pass cleanly instead of letting a half-read frame
// produce an unrelated decode error several passes later.
var errMeshBroken = fmt.Errorf("cluster: mesh broken by an earlier failed exchange; discard and re-establish")

// markBroken latches the mesh broken after a failed announce/combine frame.
func (m *tcpMesh) markBroken() {
	if m.broken.CompareAndSwap(false, true) {
		mMeshBroken.Inc()
	}
}

// exchange runs send and recv for every non-root node concurrently under
// one deadline and reports the first failure, receive side first. Any
// failure latches the mesh broken: a frame may be half-sent or half-read.
func (m *tcpMesh) exchange(send, recv func(node int, deadline time.Time) error, cfg Config) error {
	deadline := time.Now().Add(cfg.IOTimeout)
	for node := 1; node < m.n; node++ {
		m.wg.Add(2)
		go func(node int) {
			defer m.wg.Done()
			m.sendErrs[node] = send(node, deadline)
		}(node)
		go func(node int) {
			defer m.wg.Done()
			m.recvErrs[node] = recv(node, deadline)
		}(node)
	}
	m.wg.Wait()
	for node := 1; node < m.n; node++ {
		if err := m.recvErrs[node]; err != nil {
			m.markBroken()
			return err
		}
		if err := m.sendErrs[node]; err != nil {
			m.markBroken()
			return err
		}
	}
	return nil
}

// writeFrame sends one frame under the exchange deadline.
func writeFrame(conn net.Conn, frame []byte, deadline time.Time) error {
	conn.SetDeadline(deadline)
	if _, err := conn.Write(frame); err != nil {
		if isTimeout(err) {
			mIOTimeouts.Inc()
		}
		return err
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// readDone ends a frame read under the exchange deadline: it disarms the
// deadline after a successful read and counts a timeout otherwise.
func readDone(conn net.Conn, err error) error {
	if err != nil {
		if isTimeout(err) {
			mIOTimeouts.Inc()
		}
		return err
	}
	conn.SetDeadline(time.Time{})
	return nil
}

// announce propagates the coordinator's job id to every node over the root
// → node direction and returns the id each node actually received (the
// simulated node side reads its own connection, so the context genuinely
// crosses the wire). The returned slice is the mesh's and valid until its
// next exchange. An error leaves the connections out of step: the mesh marks
// itself broken so it can never be reused, and the caller must discard it
// (dropMesh) so the next pass re-dials.
func (m *tcpMesh) announce(job obs.JobID, cfg Config) ([]obs.JobID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken.Load() {
		return nil, errMeshBroken
	}
	m.jobs[0] = job
	err := m.exchange(func(node int, deadline time.Time) error {
		l := &m.links[node]
		if err := writeFrame(l.root, l.rootOut.announce(job), deadline); err != nil {
			return fmt.Errorf("cluster: node %d announce send: %w", node, err)
		}
		return nil
	}, func(node int, deadline time.Time) error {
		l := &m.links[node]
		l.node.SetDeadline(deadline)
		got, err := l.nodeIn.readAnnounce()
		if err = readDone(l.node, err); err != nil {
			return fmt.Errorf("cluster: node %d announce receive: %w", node, err)
		}
		m.jobs[node] = got
		return nil
	}, cfg)
	if err != nil {
		return nil, err
	}
	return m.jobs, nil
}

// close tears down every mesh connection. Safe on a partially built mesh.
func (m *tcpMesh) close() {
	for _, l := range m.links {
		if l.node != nil {
			l.node.Close()
		}
		if l.root != nil {
			l.root.Close()
		}
	}
}

// combine performs one global combination over the established mesh: every
// non-root node streams its object frame to the root concurrently, and the
// root folds the received cells into node 0's object in node order, so the
// floating-point result is deterministic regardless of arrival order (the
// tree algorithm moves the same non-root objects over the wire — the rounds
// differ only in who folds, so the simulation folds at the root and reports
// ⌈log2 N⌉ rounds). The returned objects, indexed by node, are the mesh's
// and valid until its next exchange. An error leaves the connections out of
// step: the mesh marks itself broken so it can never be reused, and the
// caller must discard it (dropMesh) so the next pass re-dials.
func (m *tcpMesh) combine(nodes []nodePass, algo CombineAlgo, cfg Config) (*robj.Object, []wireObject, int64, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.broken.Load() {
		return nil, nil, 0, 0, errMeshBroken
	}
	n := m.n
	if m.used {
		mConnReuses.Add(int64(n - 1))
	}
	m.used = true

	dst := nodes[0].res.Object
	maxCells := len(dst.Snapshot())
	err := m.exchange(func(node int, deadline time.Time) error {
		l, p := &m.links[node], &nodes[node]
		o := p.res.Object
		frame := l.nodeOut.object(&wireObject{
			Node:   node,
			Job:    uint64(p.res.Stats.Job),
			Groups: o.Groups(),
			Elems:  o.ElemsPerGroup(),
			Op:     o.Op(),
			Cells:  o.Snapshot(),
			Spans:  p.spans,
			Deltas: p.deltas,
		})
		if err := writeFrame(l.node, frame, deadline); err != nil {
			return fmt.Errorf("cluster: node %d send: %w", node, err)
		}
		m.sent[node] = int64(len(frame))
		return nil
	}, func(node int, deadline time.Time) error {
		l := &m.links[node]
		l.root.SetDeadline(deadline)
		err := l.rootIn.readObject(&m.objs[node], maxCells)
		if err = readDone(l.root, err); err != nil {
			return fmt.Errorf("cluster: node %d receive: %w", node, err)
		}
		if got := m.objs[node].Node; got != node {
			return fmt.Errorf("cluster: connection for node %d carried object for node %d", node, got)
		}
		return nil
	}, cfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}

	var moved int64
	for node := 1; node < n; node++ {
		w := &m.objs[node]
		if w.Groups != dst.Groups() || w.Elems != dst.ElemsPerGroup() || w.Op != dst.Op() {
			return nil, nil, 0, 0, fmt.Errorf("cluster: node %d object shape/op mismatch", node)
		}
		if err := dst.CombineCells(w.Cells); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("cluster: node %d: %w", node, err)
		}
		moved += m.sent[node]
	}
	rounds := 1
	if algo == Tree {
		rounds = 0
		for span := 1; span < n; span *= 2 {
			rounds++
		}
	}
	return dst, m.objs, moved, rounds, nil
}
