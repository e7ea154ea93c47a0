package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// frameCells is the root object size the frame tests bound readers by: the
// cluster_iter object, 20 groups × 11 elems.
const frameCells = 220

// frameAllocBound is the most one readObject may allocate: the body buffer
// and the cell scratch are within the frame bound, and no decoded record is
// more than 16 times its smallest wire form (a two-byte label decodes to a
// 32-byte obs.Label), so 20 frame bounds cover every frame the bound admits.
const frameAllocBound = 20 * (1 + objectHeadLen + 8*frameCells + obsAllowance)

// sampleObject is an object frame's worth of values with the float64 bits a
// codec most easily gets wrong: NaNs with payloads and both signs, −0, ±Inf
// and a subnormal, plus spans and deltas that exercise the string table.
func sampleObject() *wireObject {
	cells := make([]float64, frameCells)
	for i := range cells {
		cells[i] = float64(i) * 0.25
	}
	cells[0] = math.Float64frombits(0x7ff8_0000_dead_beef) // quiet NaN, payload
	cells[1] = math.Float64frombits(0xfff0_0000_0000_0001) // signalling NaN, sign set
	cells[2] = math.Copysign(0, -1)
	cells[3] = math.Inf(1)
	cells[4] = math.Inf(-1)
	cells[5] = math.SmallestNonzeroFloat64
	return &wireObject{
		Node: 1, Job: 1<<63 + 5, Groups: 20, Elems: 11, Op: robj.OpMax,
		Cells: cells,
		Spans: []obs.SpanRecord{
			{ID: 1, Name: "run", Worker: -1, Node: -1, Start: 0, Dur: 3 * time.Millisecond},
			{ID: 2, Parent: 1, Name: "reduce", Worker: -1, Node: -1, Start: time.Microsecond, Dur: time.Millisecond},
			{ID: 3, Parent: 2, Name: "worker", Worker: 7, Node: -1, Start: -time.Nanosecond, Dur: math.MaxInt64},
			{ID: 4, Parent: 2, Name: "worker", Worker: 8, Node: -1, Start: 2, Dur: 1},
			{ID: 5, Parent: 1, Name: strings.Repeat("long-", 20), Worker: -1, Node: -1},
		},
		Deltas: []obs.MetricDelta{
			{Name: "freeride_phase_ns_total", Labels: []obs.Label{{Key: "phase", Value: "reduce"}}, Value: 1234},
			{Name: "freeride_phase_ns_total", Labels: []obs.Label{{Key: "phase", Value: "split"}}, Value: 5},
			{Name: "freeride_rows_total", Value: 2000},
			{Name: "signed", Labels: []obs.Label{{Key: "a", Value: `q"uote`}, {Key: "b", Value: ""}}, Value: math.MinInt64},
		},
	}
}

// sameObject compares two decoded objects field by field, the cells by their
// bits so NaN payloads and the sign of zero count.
func sameObject(a, b *wireObject) bool {
	if a.Node != b.Node || a.Job != b.Job || a.Groups != b.Groups || a.Elems != b.Elems || a.Op != b.Op {
		return false
	}
	if !slices.EqualFunc(a.Cells, b.Cells, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		return false
	}
	return slices.Equal(a.Spans, b.Spans) && slices.EqualFunc(a.Deltas, b.Deltas, func(x, y obs.MetricDelta) bool {
		return x.Name == y.Name && x.Value == y.Value && slices.Equal(x.Labels, y.Labels)
	})
}

// decodeFrame reads one object frame from data with a fresh reader.
func decodeFrame(data []byte) (*wireObject, error) {
	r := frameReader{r: bytes.NewReader(data)}
	var w wireObject
	return &w, r.readObject(&w, frameCells)
}

func TestFrameRoundTrip(t *testing.T) {
	want := sampleObject()
	var w frameWriter
	var stream []byte
	// Two frames on one connection: the second refers to the names the
	// first entered into both string tables, and is smaller for it.
	first := len(w.object(want))
	stream = append(stream, w.buf...)
	second := len(w.object(want))
	stream = append(stream, w.buf...)
	if second >= first {
		t.Fatalf("second frame is %d bytes, first %d: names were not interned", second, first)
	}
	r := frameReader{r: bytes.NewReader(stream)}
	for i := 0; i < 2; i++ {
		var got wireObject
		if err := r.readObject(&got, frameCells); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameObject(&got, want) {
			t.Fatalf("frame %d decoded to %+v, want %+v", i, got, *want)
		}
	}
	if _, err := r.readAnnounce(); err != io.EOF {
		t.Fatalf("read past the stream: %v, want EOF", err)
	}
}

// TestFrameRefusals checks the reader's bounds: a frame over the bound is
// refused before its body is read, counts past the frame's end are refused
// before anything is allocated for them, and a frame of the wrong kind or
// with bytes after its last field is refused.
func TestFrameRefusals(t *testing.T) {
	valid := (&frameWriter{}).object(sampleObject())
	for name, data := range frameSeeds() {
		if name == "valid" {
			continue
		}
		if _, err := decodeFrame(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// The body of an oversize frame is never read: the reader stops at
	// the header.
	over := binaryFrame(frameObject, objectFrameMax(frameCells)+1)
	rd := bytes.NewReader(over)
	r := frameReader{r: rd}
	var w wireObject
	if err := r.readObject(&w, frameCells); err == nil {
		t.Fatal("oversize frame accepted")
	}
	if read := len(over) - rd.Len(); read != frameHeadLen {
		t.Fatalf("reader consumed %d bytes of an oversize frame, want the %d-byte header only", read, frameHeadLen)
	}

	if _, err := decodeFrame(append(slices.Clone(valid), 0)); err != nil {
		t.Errorf("a byte after the frame on the stream made the frame invalid: %v", err)
	}
	long := slices.Clone(valid)
	long = append(long, 0)
	long[0]++ // the size now covers the extra byte
	if _, err := decodeFrame(long); err == nil {
		t.Error("frame with a byte after its last field accepted")
	}
	hello := (&frameWriter{}).hello(3)
	if _, err := decodeFrame(hello); err == nil {
		t.Error("hello frame accepted as an object")
	}
	if _, err := decodeFrame(valid[:len(valid)-1]); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
}

// binaryFrame is a frame header claiming a body of size bytes (kind byte
// included) followed by that many zero bytes.
func binaryFrame(kind byte, size int) []byte {
	b := make([]byte, frameHeadLen-1+size)
	b[0], b[1], b[2], b[3] = byte(size), byte(size>>8), byte(size>>16), byte(size>>24)
	b[4] = kind
	return b
}

// frameSeeds are the inputs checked in under testdata/fuzz/FuzzReadFrame:
// one valid frame and one of each way a frame must be refused.
func frameSeeds() map[string][]byte {
	valid := slices.Clone((&frameWriter{}).object(sampleObject()))
	// hugeCount is a frame with an empty cell list whose span count (before
	// 0) or delta count (before 1, after an empty span list) is n.
	hugeCount := func(before int, n uint64) []byte {
		f := slices.Clone((&frameWriter{}).object(&wireObject{Node: 1, Groups: 1, Elems: 1}))
		f = binary.AppendUvarint(f[:frameHeadLen+objectHeadLen+before], n)
		f[0], f[1], f[2], f[3] = byte(len(f)-4), 0, 0, 0
		return f
	}
	hugeLabels := slices.Clone((&frameWriter{}).object(&wireObject{
		Deltas: []obs.MetricDelta{{Name: "d"}},
	}))
	// The delta's label count is the byte before its value: make it 2^35.
	hugeLabels = append(hugeLabels[:len(hugeLabels)-2], 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 0)
	hugeLabels[0] = byte(len(hugeLabels) - 4)
	cellsPast := slices.Clone(valid)
	at := frameHeadLen + objectHeadLen - 4
	cellsPast[at], cellsPast[at+1], cellsPast[at+2] = 0xff, 0xff, 0xff // 16 M cells
	oversize := slices.Clone(valid)
	oversize[2], oversize[3] = 0xff, 0x7f
	return map[string][]byte{
		"valid":       valid,
		"truncated":   valid[:len(valid)/2],
		"oversize":    oversize,
		"cells-past":  cellsPast,
		"huge-spans":  hugeCount(0, 1<<20), // 56 MB of spans if believed
		"huge-deltas": hugeCount(1, 1<<62),
		"huge-labels": hugeLabels,
	}
}

// TestFrameSeedCorpus keeps the checked-in seed corpus honest: the valid
// seed still decodes to sampleObject and every other seed is still refused.
func TestFrameSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzReadFrame")
	for name := range frameSeeds() {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		if !ok || !strings.HasSuffix(lit, ")") {
			t.Fatalf("%s: not a corpus file of one []byte", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := decodeFrame([]byte(data))
		if name == "valid" {
			if err != nil || !sameObject(got, sampleObject()) {
				t.Errorf("valid seed no longer decodes to sampleObject: %v", err)
			}
		} else if err == nil {
			t.Errorf("seed %s decoded without error", name)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame readers. The oracle: no
// reader panics; readObject allocates at most frameAllocBound however large
// the counts in the frame claim to be; and a frame it accepts re-encodes to
// a frame that decodes to bit-identical values and re-encodes to the same
// bytes.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		got, err := decodeFrame(data)
		metrics.Read(allocs)
		if grew := allocs[0].Value.Uint64() - before; grew > frameAllocBound {
			t.Fatalf("readObject allocated %d bytes for a %d-byte input (bound %d)", grew, len(data), frameAllocBound)
		}
		(&frameReader{r: bytes.NewReader(data)}).readHello()
		(&frameReader{r: bytes.NewReader(data)}).readAnnounce()
		if err != nil {
			return
		}
		frame := slices.Clone((&frameWriter{}).object(got))
		again, err := decodeFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !sameObject(again, got) {
			t.Fatalf("round trip changed the object:\n got %+v\nwant %+v", *again, *got)
		}
		if re := (&frameWriter{}).object(again); !bytes.Equal(re, frame) {
			t.Fatal("re-encoding a decoded frame changed its bytes")
		}
	})
}
