package dataset

import "context"

// Reader resolves a Source's optional capabilities — the RowSlicer zero-copy
// fast path and the ContextSource cancellation path — once, instead of
// type-asserting on every read. The engine's worker loop and the cluster's
// node sources both read through a Reader.
//
// A Reader is a small value; copy it freely. Its methods are safe for
// concurrent use when the underlying source's are.
type Reader struct {
	src    Source
	slicer RowSlicer
	cs     ContextSource
	cols   int
}

// NewReader wraps src, probing its capabilities once.
func NewReader(src Source) Reader {
	r := Reader{src: src, cols: src.Cols()}
	if s, ok := src.(RowSlicer); ok {
		r.slicer = s
	}
	if c, ok := src.(ContextSource); ok {
		r.cs = c
	}
	return r
}

// NumRows reports the source's row count.
func (r Reader) NumRows() int { return r.src.NumRows() }

// Cols reports the source's feature count.
func (r Reader) Cols() int { return r.cols }

// Read returns rows [begin, end) row-major: a slice aliasing the source's
// storage when it supports zero-copy, otherwise a copy into *buf, which is
// grown as needed and updated so callers can reuse it across reads. The
// returned slice is valid until the next Read with the same buf.
func (r Reader) Read(ctx context.Context, begin, end int, buf *[]float64) ([]float64, error) {
	if r.slicer != nil {
		return r.slicer.Rows(begin, end), nil
	}
	need := (end - begin) * r.cols
	b := *buf
	if cap(b) < need {
		b = make([]float64, need)
	}
	b = b[:need]
	*buf = b
	if err := r.ReadInto(ctx, begin, end, b); err != nil {
		return nil, err
	}
	return b, nil
}

// ReadInto copies rows [begin, end) into dst (Source.ReadRows semantics)
// honoring ctx: context-aware sources receive it, and for plain sources it
// is checked once before the uninterruptible read, bounding cancellation
// latency by one read.
func (r Reader) ReadInto(ctx context.Context, begin, end int, dst []float64) error {
	if r.cs != nil {
		return r.cs.ReadRowsContext(ctx, begin, end, dst)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return r.src.ReadRows(begin, end, dst)
}
