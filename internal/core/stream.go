package core

import (
	"sync"
	"time"

	"chapelfreeride/internal/chapel"
)

// TranslateStreaming is the paper's proposed remedy for the sequential
// linearization overhead (§V: "a pipelining strategy can be used to reduce
// this overhead ... overlapping linearization with processing of data"):
// instead of linearizing the whole dataset before the first reduction pass,
// the translation starts a background linearizer that fills the word buffer
// chunk by chunk while the engine's workers consume rows that are already
// resident. The returned Translation behaves like TranslateWith's, except
// its Source blocks readers until the rows they request have been
// linearized.
//
// The overlap only helps the first pass over the data (later passes find
// the buffer complete), which is exactly the paper's Fig. 11 configuration:
// k-means with a single iteration, where linearization is proportionally
// largest.
func TranslateStreaming(class *ReductionClass, data *chapel.Array, opt OptLevel, chunkRows int) (*Translation, *StreamStats, error) {
	if err := Verify(class, data, opt).Err(); err != nil {
		return nil, nil, err
	}
	if chunkRows < 1 {
		chunkRows = 4096
	}
	meta, err := MetaFor(data.Ty, class.Path...)
	if err != nil {
		return nil, nil, err
	}
	promoteFlatDataMeta(meta)
	wmeta, err := meta.Words()
	if err != nil {
		return nil, nil, err
	}
	tr := &Translation{class: class, opt: opt, meta: wmeta, rows: data.Len()}
	tr.cols = SizeOf(data.Ty.Elem) / 8
	tr.words = make([]float64, tr.rows*tr.cols)

	// Hot variables are prepared eagerly (they are small).
	if err := tr.bind(); err != nil {
		return nil, nil, err
	}

	// Background linearizer: fill tr.words chunk by chunk, publishing
	// progress through the stream gate.
	st := &StreamStats{chunkRows: chunkRows}
	st.cond = sync.NewCond(&st.mu)
	tr.stream = st
	go func() {
		start := time.Now()
		elemWords := tr.cols
		off := 0
		for lo := 0; lo < tr.rows; lo += chunkRows {
			hi := lo + chunkRows
			if hi > tr.rows {
				hi = tr.rows
			}
			for i := lo; i < hi; i++ {
				off = wordsInto(tr.words, off, data.Elems[i])
			}
			_ = elemWords
			st.mu.Lock()
			st.readyRows = hi
			st.chunks++
			st.cond.Broadcast()
			st.mu.Unlock()
		}
		st.mu.Lock()
		st.duration = time.Since(start)
		st.done = true
		st.cond.Broadcast()
		st.mu.Unlock()
	}()
	tr.LinearizeTime = 0 // overlapped; see StreamStats.Duration
	return tr, st, nil
}

// StreamStats tracks the background linearizer's progress.
type StreamStats struct {
	mu        sync.Mutex
	cond      *sync.Cond
	readyRows int
	chunks    int
	done      bool
	duration  time.Duration
	waits     int
	chunkRows int
}

// waitFor blocks until at least rows rows are linearized.
func (s *StreamStats) waitFor(rows int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.readyRows < rows {
		s.waits++
	}
	for s.readyRows < rows && !s.done {
		s.cond.Wait()
	}
}

// Wait blocks until the background linearization has completed and returns
// its duration.
func (s *StreamStats) Wait() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.done {
		s.cond.Wait()
	}
	return s.duration
}

// Waits reports how many reader requests had to block on the linearizer —
// 0 means the pipeline fully hid the linearization.
func (s *StreamStats) Waits() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waits
}

// Chunks reports the number of linearization chunks produced.
func (s *StreamStats) Chunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.chunks
}

// streamSource gates row access on the background linearizer.
type streamSource struct {
	*WordSource
	stats *StreamStats
}

// ReadRows implements dataset.Source, blocking until the rows are ready.
func (s *streamSource) ReadRows(begin, end int, dst []float64) error {
	s.stats.waitFor(end)
	return s.WordSource.ReadRows(begin, end, dst)
}

// Rows implements dataset.RowSlicer, blocking until the rows are ready.
func (s *streamSource) Rows(begin, end int) []float64 {
	s.stats.waitFor(end)
	return s.WordSource.Rows(begin, end)
}
