package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"

	"chapelfreeride/internal/chapel"
)

// Buffer is linearized storage: the dense low-level data Ds that FREERIDE's
// "simple 2-D array view" requires, produced from a high-level Chapel value
// by Algorithm 2. It retains the source type so the storage can be mapped
// (Meta/ComputeIndex) and de-linearized (written back).
type Buffer struct {
	// Ty is the Chapel type of the linearized value.
	Ty *chapel.Type
	// Bytes is the dense storage, in the layout SizeOf describes.
	Bytes []byte
}

// Linearize is Algorithm 2 (linearizeIt): it allocates storage of
// ComputeLinearizeSize bytes and recursively copies the value into it —
// primitives directly, arrays element by element, records member by member.
func Linearize(v chapel.Value) *Buffer {
	b := &Buffer{Ty: v.Type(), Bytes: make([]byte, ComputeLinearizeSize(v))}
	off := linearizeInto(b.Bytes, 0, v)
	if off != len(b.Bytes) {
		panic(fmt.Sprintf("core: linearize wrote %d of %d bytes", off, len(b.Bytes)))
	}
	return b
}

// linearizeInto copies v at offset off, returning the next free offset.
func linearizeInto(dst []byte, off int, v chapel.Value) int {
	switch x := v.(type) {
	case *chapel.Int:
		binary.LittleEndian.PutUint64(dst[off:], uint64(x.Val))
		return off + intSize
	case *chapel.Real:
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(x.Val))
		return off + realSize
	case *chapel.Bool:
		if x.Val {
			dst[off] = 1
		} else {
			dst[off] = 0
		}
		return off + boolSize
	case *chapel.String:
		n := copy(dst[off:off+x.Ty.MaxLen], x.Val)
		for i := off + n; i < off+x.Ty.MaxLen; i++ {
			dst[i] = 0
		}
		return off + x.Ty.MaxLen
	case *chapel.Enum:
		binary.LittleEndian.PutUint64(dst[off:], uint64(x.Ordinal))
		return off + enumSize
	case *chapel.Array:
		for _, e := range x.Elems {
			off = linearizeInto(dst, off, e)
		}
		return off
	case *chapel.Record:
		for _, f := range x.Fields {
			off = linearizeInto(dst, off, f)
		}
		return off
	default:
		panic(fmt.Sprintf("core: linearize of unknown value %T", v))
	}
}

// LinearizeExpr is Algorithm 2's isIterative branch: the linearization
// function is invoked iteratively on each element the expression yields
// (e.g. on each sum of corresponding elements for A+B). The result is typed
// as a [1..n] array of the element type.
func LinearizeExpr(e chapel.Expr) *Buffer {
	n := e.Len()
	ty := chapel.ArrayType(e.ElemType(), 1, n)
	b := &Buffer{Ty: ty, Bytes: make([]byte, ExprLinearizeSize(e))}
	off := 0
	for i := 0; i < n; i++ {
		off = linearizeInto(b.Bytes, off, e.Index(i))
	}
	return b
}

// ReadReal reads the real at byte offset off.
func (b *Buffer) ReadReal(off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.Bytes[off:]))
}

// WriteReal stores a real at byte offset off.
func (b *Buffer) WriteReal(off int, v float64) {
	binary.LittleEndian.PutUint64(b.Bytes[off:], math.Float64bits(v))
}

// ReadInt reads the int at byte offset off.
func (b *Buffer) ReadInt(off int) int64 {
	return int64(binary.LittleEndian.Uint64(b.Bytes[off:]))
}

// WriteInt stores an int at byte offset off.
func (b *Buffer) WriteInt(off int, v int64) {
	binary.LittleEndian.PutUint64(b.Bytes[off:], uint64(v))
}

// ReadBool reads the bool at byte offset off.
func (b *Buffer) ReadBool(off int) bool { return b.Bytes[off] != 0 }

// ReadString reads the fixed-width string slot of width maxLen at off,
// trimming the zero padding.
func (b *Buffer) ReadString(off, maxLen int) string {
	s := b.Bytes[off : off+maxLen]
	end := len(s)
	for end > 0 && s[end-1] == 0 {
		end--
	}
	return string(s[:end])
}

// Delinearize reconstructs the boxed Chapel value from linearized storage —
// the inverse of Linearize, used to write reduction results back into
// Chapel's world and to verify round-trips.
func Delinearize(b *Buffer) (chapel.Value, error) {
	if want := SizeOf(b.Ty); want != len(b.Bytes) {
		return nil, fmt.Errorf("core: delinearize size mismatch: type wants %d bytes, buffer has %d",
			want, len(b.Bytes))
	}
	v, _ := delinearizeAt(b, 0, b.Ty)
	return v, nil
}

func delinearizeAt(b *Buffer, off int, ty *chapel.Type) (chapel.Value, int) {
	switch ty.Kind {
	case chapel.KindInt:
		return &chapel.Int{Val: b.ReadInt(off)}, off + intSize
	case chapel.KindReal:
		return &chapel.Real{Val: b.ReadReal(off)}, off + realSize
	case chapel.KindBool:
		return &chapel.Bool{Val: b.ReadBool(off)}, off + boolSize
	case chapel.KindString:
		return &chapel.String{Ty: ty, Val: b.ReadString(off, ty.MaxLen)}, off + ty.MaxLen
	case chapel.KindEnum:
		ord := int(b.ReadInt(off))
		if ord < 0 || ord >= len(ty.Consts) {
			ord = 0
		}
		return &chapel.Enum{Ty: ty, Ordinal: ord}, off + enumSize
	case chapel.KindArray:
		a := &chapel.Array{Ty: ty, Elems: make([]chapel.Value, ty.Len())}
		for i := range a.Elems {
			a.Elems[i], off = delinearizeAt(b, off, ty.Elem)
		}
		return a, off
	case chapel.KindRecord:
		r := &chapel.Record{Ty: ty, Fields: make([]chapel.Value, len(ty.Fields))}
		for i, f := range ty.Fields {
			r.Fields[i], off = delinearizeAt(b, off, f.Type)
		}
		return r, off
	default:
		panic("core: delinearize of unknown kind " + ty.Kind.String())
	}
}

// Float64s decodes the buffer as a dense []float64, valid only for all-real
// layouts. This is the element-typed view of Fig. 8's linear_data.
func (b *Buffer) Float64s() ([]float64, error) {
	if !AllReal(b.Ty) {
		return nil, fmt.Errorf("core: Float64s view needs an all-real layout, type is %s", b.Ty)
	}
	out := make([]float64, len(b.Bytes)/8)
	for i := range out {
		out[i] = b.ReadReal(i * 8)
	}
	return out, nil
}

// LinearizeToWords linearizes an all-real value directly into a []float64,
// skipping the byte stage. This is the fast path used for the input
// datasets handed to FREERIDE and for opt-2's hot-variable linearization.
// The buffer is sized from the type, and a top-level array is copied by
// stageWorkers(n) workers, each a contiguous range of elements: element
// offsets are fixed by the type, so the ranges are independent and the
// words are the same whatever the worker count.
func LinearizeToWords(v chapel.Value) ([]float64, error) {
	if a, ok := v.(*chapel.Array); ok {
		return LinearizeToWordsParallel(a, stageWorkers(a.Len()))
	}
	if !AllReal(v.Type()) {
		return nil, fmt.Errorf("core: LinearizeToWords needs an all-real value, type is %s", v.Type())
	}
	out := make([]float64, SizeOf(v.Type())/8)
	wordsInto(out, 0, v)
	return out, nil
}

// LinearizeToWordsParallel is LinearizeToWords over a top-level array on
// an explicit number of workers (at least one) — the paper's future-work
// parallel linearization (§V) at a chosen width, for ablations.
func LinearizeToWordsParallel(a *chapel.Array, workers int) ([]float64, error) {
	if !AllReal(a.Ty) {
		return nil, fmt.Errorf("core: LinearizeToWords needs an all-real value, type is %s", a.Ty)
	}
	elemWords := SizeOf(a.Ty.Elem) / 8
	out := make([]float64, a.Len()*elemWords)
	forRanges(a.Len(), max(workers, 1), func(_, lo, hi int) {
		off := lo * elemWords
		for _, e := range a.Elems[lo:hi] {
			off = wordsInto(out, off, e)
		}
	})
	return out, nil
}

// grain is the fewest items a translate-time stage hands one worker. Below
// it a goroutine's start-up outweighs the copy it takes over, so serve's
// 200 k-entry spmv and the small test fixtures stay on one worker.
const grain = 1 << 17

// stageWorkers is the worker count of a translate-time stage over n items:
// one per grain of items, at most GOMAXPROCS, at least one.
func stageWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/grain))
}

// forRanges splits [0, n) into workers contiguous, ascending ranges of
// near-equal size (empty when workers > n) and calls f(w, lo, hi) for each
// range w concurrently, the last on the calling goroutine. It returns once
// every call has returned. Every translate-time stage that runs on more
// than one core — dense and COO linearization, the inspector's counting
// sort, the sparse hot refresh — splits its work here, so its output is
// the same whatever the worker count.
func forRanges(n, workers int, f func(w, lo, hi int)) {
	last := workers - 1
	var wg sync.WaitGroup
	wg.Add(last)
	for w := 0; w < last; w++ {
		go func(w int) {
			defer wg.Done()
			f(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	f(last, last*n/workers, n)
	wg.Wait()
}

func wordsInto(dst []float64, off int, v chapel.Value) int {
	switch x := v.(type) {
	case *chapel.Real:
		dst[off] = x.Val
		return off + 1
	case *chapel.Array:
		for _, e := range x.Elems {
			off = wordsInto(dst, off, e)
		}
		return off
	case *chapel.Record:
		for _, f := range x.Fields {
			off = wordsInto(dst, off, f)
		}
		return off
	default:
		panic(fmt.Sprintf("core: word linearize of non-real value %T", v))
	}
}

// SparseCOO is the raw coordinate-form sparse matrix the inspector consumes:
// nnz entries (R[e], C[e], V[e]) with 0-based coordinates in a logical
// Rows×Cols shape. Coordinates are deliberately NOT bounds-checked at
// construction — the inspector refuses rows outside the shape and the
// verifier's table proof refuses columns outside it (both FRV013) when an
// InspectorPlan is built from the COO and bound to a class.
type SparseCOO struct {
	// Rows and Cols are the logical matrix shape.
	Rows, Cols int
	// R, C, V hold one entry per nonzero: row, column, value.
	R, C []int32
	V    []float64
}

// LinearizeCOO is the sparse branch of the linearizer: it unboxes a Chapel
// [lo..hi] array of record { r: real; c: real; v: real } entries — the
// natural Chapel-side form of a COO sparse matrix with coordinates stored
// as whole-number reals so the record stays an all-real layout — into the
// raw SparseCOO the inspector consumes. r and c are 1-based (Chapel domain
// style) and converted to 0-based; rows and cols declare the logical shape.
// Structural problems (wrong record shape, fractional coordinates,
// coordinates no int32 holds) are linearization errors; coordinates outside
// the matrix pass through for the inspector (rows) and the verifier
// (columns) to reject with FRV013.
func LinearizeCOO(arr *chapel.Array, rows, cols int) (*SparseCOO, error) {
	if arr == nil {
		return nil, fmt.Errorf("core: LinearizeCOO needs a COO array")
	}
	return linearizeCOO(arr, rows, cols, stageWorkers(arr.Len()))
}

// linearizeCOO is LinearizeCOO on workers goroutines, each unboxing a
// contiguous range of records into its own part of the tables. A worker
// stops at its first bad coordinate (r before c); the lowest worker's
// error is the first in entry order, as one worker would report it.
func linearizeCOO(arr *chapel.Array, rows, cols, workers int) (*SparseCOO, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("core: LinearizeCOO shape %dx%d is negative", rows, cols)
	}
	rec := arr.Ty.Elem
	if rec.Kind != chapel.KindRecord {
		return nil, fmt.Errorf("core: COO array must hold records, got %s", arr.Ty)
	}
	ri, ci, vi := rec.FieldIndex("r"), rec.FieldIndex("c"), rec.FieldIndex("v")
	if ri < 0 || ci < 0 || vi < 0 {
		return nil, fmt.Errorf("core: COO record %s needs fields r, c, v", rec.Name)
	}
	for _, f := range []int{ri, ci, vi} {
		if rec.Fields[f].Type.Kind != chapel.KindReal {
			return nil, fmt.Errorf("core: COO field %q must be real, got %s",
				rec.Fields[f].Name, rec.Fields[f].Type)
		}
	}
	nnz := arr.Len()
	coo := &SparseCOO{
		Rows: rows, Cols: cols,
		R: make([]int32, nnz), C: make([]int32, nnz), V: make([]float64, nnz),
	}
	errs := make([]error, workers)
	forRanges(nnz, workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			fields := arr.Elems[i].(*chapel.Record).Fields
			r, err := wholeCoord(fields[ri].(*chapel.Real).Val, "r", i)
			if err != nil {
				errs[w] = err
				return
			}
			c, err := wholeCoord(fields[ci].(*chapel.Real).Val, "c", i)
			if err != nil {
				errs[w] = err
				return
			}
			coo.R[i], coo.C[i] = r, c
			coo.V[i] = fields[vi].(*chapel.Real).Val
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return coo, nil
}

// COOFromTriples builds the SparseCOO straight from flat row-major
// (row, col, value) triples with 0-based whole-number coordinates — the
// layout a sparse dataset already holds — with no boxed Chapel records in
// between. It accepts and rejects exactly what LinearizeCOO does for the
// same triples boxed by apps.BoxTriples, value for value: each coordinate
// takes the same 1-based round trip through wholeCoord. words is only read.
func COOFromTriples(words []float64, rows, cols int) (*SparseCOO, error) {
	if len(words)%3 != 0 {
		return nil, fmt.Errorf("core: COOFromTriples got %d words, not whole (row, col, value) triples", len(words))
	}
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("core: COOFromTriples shape %dx%d is negative", rows, cols)
	}
	nnz := len(words) / 3
	coo := &SparseCOO{
		Rows: rows, Cols: cols,
		R: make([]int32, nnz), C: make([]int32, nnz), V: make([]float64, nnz),
	}
	for i := 0; i < nnz; i++ {
		t := words[3*i : 3*i+3 : 3*i+3]
		r, err := wholeCoord(t[0]+1, "r", i)
		if err != nil {
			return nil, err
		}
		c, err := wholeCoord(t[1]+1, "c", i)
		if err != nil {
			return nil, err
		}
		coo.R[i], coo.C[i], coo.V[i] = r, c, t[2]
	}
	return coo, nil
}

// wholeCoord converts a real-stored 1-based (Chapel) coordinate to the
// 0-based int32 the index tables hold. A fractional value is a construction
// bug, and one whose 0-based form does not fit an int32 cannot be stored at
// all; both are errors here, not out-of-range entries for the verifier.
func wholeCoord(v float64, field string, entry int) (int32, error) {
	if v != math.Trunc(v) {
		return 0, fmt.Errorf("core: COO entry %d field %q holds %v, not a whole-number coordinate",
			entry, field, v)
	}
	if v-1 < math.MinInt32 || v-1 > math.MaxInt32 {
		return 0, fmt.Errorf("core: COO entry %d field %q holds %v, out of range for an int32 index table",
			entry, field, v)
	}
	return int32(v - 1), nil
}

// WordsBack writes a []float64 word view back into a boxed all-real value,
// the word-level inverse used to return FREERIDE results (e.g. updated
// centroids) to Chapel structures.
func WordsBack(words []float64, v chapel.Value) error {
	if !AllReal(v.Type()) {
		return fmt.Errorf("core: WordsBack needs an all-real value, type is %s", v.Type())
	}
	want := ComputeLinearizeSize(v) / 8
	if len(words) != want {
		return fmt.Errorf("core: WordsBack got %d words, value wants %d", len(words), want)
	}
	wordsBack(words, 0, v)
	return nil
}

func wordsBack(src []float64, off int, v chapel.Value) int {
	switch x := v.(type) {
	case *chapel.Real:
		x.Val = src[off]
		return off + 1
	case *chapel.Array:
		for _, e := range x.Elems {
			off = wordsBack(src, off, e)
		}
		return off
	case *chapel.Record:
		for _, f := range x.Fields {
			off = wordsBack(src, off, f)
		}
		return off
	default:
		panic(fmt.Sprintf("core: wordsBack into non-real value %T", v))
	}
}
