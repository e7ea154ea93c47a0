package core

import (
	"context"
	"testing"

	"chapelfreeride/internal/freeride"
)

func TestStreamingTranslationMatchesEager(t *testing.T) {
	const n, k, dim = 800, 4, 3
	data := makePoints(n, dim, 9)
	centroids := makeCentroids(k, dim, 10)
	want := kmeansManual(data, centroids, k, dim)
	for _, opt := range OptLevels() {
		for _, chunkRows := range []int{1, 37, 256, 4096} {
			tr, st, err := TranslateStreaming(kmeansClass(k, dim, centroids), data, opt, chunkRows)
			if err != nil {
				t.Fatalf("%v: %v", opt, err)
			}
			eng := freeride.New(freeride.Config{Threads: 3, SplitRows: 64})
			res, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source())
			if err != nil {
				t.Fatalf("%v/chunk=%d: %v", opt, chunkRows, err)
			}
			got := res.Object.Snapshot()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v/chunk=%d: cell %d = %v, want %v", opt, chunkRows, i, got[i], want[i])
				}
			}
			if d := st.Wait(); d <= 0 {
				t.Fatalf("linearizer duration = %v", d)
			}
			wantChunks := (n + chunkRows - 1) / chunkRows
			if st.Chunks() != wantChunks {
				t.Fatalf("chunks = %d, want %d", st.Chunks(), wantChunks)
			}
		}
	}
}

func TestStreamingTranslationSecondPassUnblocked(t *testing.T) {
	// After the first pass completes, the buffer is full: a second pass
	// must see zero additional waits.
	data := makePoints(300, 2, 11)
	centroids := makeCentroids(2, 2, 12)
	tr, st, err := TranslateStreaming(kmeansClass(2, 2, centroids), data, Opt2, 32)
	if err != nil {
		t.Fatal(err)
	}
	eng := freeride.New(freeride.Config{Threads: 2, SplitRows: 32})
	if _, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	st.Wait()
	before := st.Waits()
	if _, err := eng.RunContext(context.Background(), tr.Spec(), tr.Source()); err != nil {
		t.Fatal(err)
	}
	if st.Waits() != before {
		t.Fatalf("second pass blocked: %d → %d waits", before, st.Waits())
	}
}

func TestStreamingTranslationErrors(t *testing.T) {
	data := makePoints(10, 2, 13)
	if _, _, err := TranslateStreaming(nil, data, OptNone, 8); err == nil {
		t.Fatal("nil class: want error")
	}
	cls := kmeansClass(2, 2, makeCentroids(2, 2, 14))
	bad := *cls
	bad.Path = []string{"nope"}
	if _, _, err := TranslateStreaming(&bad, data, OptNone, 8); err == nil {
		t.Fatal("bad path: want error")
	}
	// chunkRows <= 0 defaults instead of failing.
	tr, st, err := TranslateStreaming(cls, data, Opt1, 0)
	if err != nil {
		t.Fatal(err)
	}
	st.Wait()
	if len(tr.Words()) != 20 {
		t.Fatalf("words = %d", len(tr.Words()))
	}
}
