package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
)

// sparseSpec is the shared sparse test recipe: a 64×48 matrix with 200
// integer-valued nonzeros.
func sparseSpec(name string) DatasetSpec {
	return DatasetSpec{Name: name, Kind: "sparse", Rows: 64, Dim: 48, NNZ: 200, Seed: 7}
}

// TestServeSpMVMatchesDensified: a synchronous spmv job over the HTTP API
// produces the densified sequential reference's vector bit-identically —
// the recipe's integer values and the kernel's deterministic integer x make
// float accumulation exact under any scheduler.
func TestServeSpMVMatchesDensified(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 32}})
	spec := sparseSpec("sp1")
	if _, err := s.RegisterDataset(spec); err != nil {
		t.Fatal(err)
	}

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "spmv", Dataset: "sp1",
		Params: Params{Rows: spec.Rows, Cols: spec.Dim, Iterations: 2}, Wait: true,
	}, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("job state %q, error %q", st.State, st.Error)
	}

	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var out SpMVOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rows != spec.Rows || out.Cols != spec.Dim || out.NNZ != spec.NNZ {
		t.Fatalf("shape (%d, %d, nnz %d), want (%d, %d, nnz %d)",
			out.Rows, out.Cols, out.NNZ, spec.Rows, spec.Dim, spec.NNZ)
	}
	if out.IndexTableBytes <= 0 {
		t.Fatalf("index table bytes %d, want > 0", out.IndexTableBytes)
	}
	if out.Iterations != 2 {
		t.Fatalf("iterations %d, want 2", out.Iterations)
	}

	// Reference: the same recipe materialized locally, densified, and run
	// through the sequential mat-vec with the kernel's deterministic x.
	triples := spec.materialize()
	x := make([]float64, spec.Dim)
	for j := range x {
		x[j] = float64(j%7 + 1)
	}
	ref, err := apps.SpMVSeq(triples, apps.SpMVConfig{Rows: spec.Rows, Cols: spec.Dim, X: x})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Y) != len(ref.Y) {
		t.Fatalf("len(Y) = %d, want %d", len(out.Y), len(ref.Y))
	}
	for i := range ref.Y {
		if out.Y[i] != ref.Y[i] {
			t.Fatalf("y[%d] = %v, want %v", i, out.Y[i], ref.Y[i])
		}
	}
}

// TestServeSpMVInfersShape: with no Rows/Cols params the kernel runs over
// the tightest shape fitting the triples.
func TestServeSpMVInfersShape(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	if _, err := s.RegisterDataset(sparseSpec("sp2")); err != nil {
		t.Fatal(err)
	}
	var st Status
	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "sp2", Wait: true}, &st)
	if st.State != JobDone {
		t.Fatalf("job state %q, error %q", st.State, st.Error)
	}
	raw, _ := json.Marshal(st.Result)
	var out SpMVOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Rows < 1 || out.Rows > 64 || out.Cols < 1 || out.Cols > 48 {
		t.Fatalf("inferred shape %dx%d outside the recipe's 64x48", out.Rows, out.Cols)
	}
	if len(out.Y) != out.Rows {
		t.Fatalf("len(Y) = %d, want %d", len(out.Y), out.Rows)
	}
}

// TestServeSpMVExplicitDimensionWins: a job that gives one dimension and
// omits the other has only the omitted one inferred from the triples. The
// given one is never raised to fit them: triples past it fail the job with
// FRV013 instead of being served under a shape the client did not ask for.
func TestServeSpMVExplicitDimensionWins(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	// Largest row 9, largest column 2: the inferred shape is 10x3.
	path := filepath.Join(t.TempDir(), "triples.frds")
	m := dataset.NewMatrix(3, 3)
	copy(m.Data, []float64{0, 0, 1, 9, 2, 2, 4, 1, 3})
	if err := dataset.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDataset(DatasetSpec{Name: "t", Kind: "file", Path: path}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p          Params
		rows, cols int // 0: the job must fail with FRV013
	}{
		{Params{Rows: 12}, 12, 3},
		{Params{Cols: 5}, 10, 5},
		{Params{Rows: 5}, 0, 0},
		{Params{Cols: 2}, 0, 0},
		{Params{Rows: 5, Cols: 3}, 0, 0},
	} {
		var st Status
		postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "t", Params: tc.p, Wait: true}, &st)
		if tc.rows == 0 {
			if st.State != JobFailed || !strings.Contains(st.Error, "FRV013") {
				t.Errorf("params %+v: job %q (%q), want failed with FRV013", tc.p, st.State, st.Error)
			}
			continue
		}
		if st.State != JobDone {
			t.Errorf("params %+v: job %q (%q), want done", tc.p, st.State, st.Error)
			continue
		}
		raw, _ := json.Marshal(st.Result)
		var out SpMVOutput
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if out.Rows != tc.rows || out.Cols != tc.cols {
			t.Errorf("params %+v: served as %dx%d, want %dx%d", tc.p, out.Rows, out.Cols, tc.rows, tc.cols)
		}
	}
}

// TestServeSpMVShapeRejected: a negative matrix shape, one past what an
// int32 index table addresses, or one past a sparse recipe's own shape is a
// 400 at submission instead of a kernel that sizes its vectors from it. A
// shape inferred from the triples, or given for a dataset with no recipe
// shape, is bounded too: its job fails. The server answers /healthz
// afterwards.
func TestServeSpMVShapeRejected(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	if _, err := s.RegisterDataset(sparseSpec("sp3")); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{
		{Rows: -5, Cols: -5},
		{Rows: 64, Cols: -1},
		{Rows: math.MaxInt32 + 1, Cols: 48},
		{Rows: 64, Cols: math.MaxInt32 + 1},
		// Inside int32, but past the 64x48 recipe: x and y would be sized
		// from it.
		{Rows: math.MaxInt32, Cols: 48},
		{Rows: 64, Cols: 49},
	} {
		var body struct {
			Error string `json:"error"`
		}
		resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "sp3", Params: p, Wait: true}, &body)
		if resp.StatusCode != http.StatusBadRequest || body.Error == "" {
			t.Fatalf("shape %dx%d: status %d, error %q; want 400 with a message", p.Rows, p.Cols, resp.StatusCode, body.Error)
		}
	}

	// A shape inferred from the triples is bounded the same way: a column
	// coordinate of 1e15 fails the job instead of sizing x from it.
	path := filepath.Join(t.TempDir(), "wide.frds")
	wide := dataset.NewMatrix(1, 3)
	copy(wide.Data, []float64{0, 1e15, 1})
	if err := dataset.WriteFile(path, wide); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDataset(DatasetSpec{Name: "wide", Kind: "file", Path: path}); err != nil {
		t.Fatal(err)
	}
	var st Status
	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "wide", Wait: true}, &st)
	if st.State != JobFailed {
		t.Fatalf("spmv with an inferred 1e15-column shape finished %q, want failed", st.State)
	}
	// A dataset with no recipe shape (a file) is bounded by the kernel: x
	// and y past the server's cache bound fail the job before allocation.
	st = Status{}
	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "wide",
		Params: Params{Rows: math.MaxInt32, Cols: 48}, Wait: true}, &st)
	if st.State != JobFailed || !strings.Contains(st.Error, "cache bound") {
		t.Fatalf("spmv with a MaxInt32-row shape over a file finished %q (%q), want failed on the cache bound", st.State, st.Error)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after rejected shapes: %d", resp.StatusCode)
	}
}

// TestSparseDatasetValidation: sparse recipes need nnz >= 1, and a sparse
// job against a dense dataset is rejected by the kernel, not crashed.
func TestSparseDatasetValidation(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	bad := sparseSpec("bad")
	bad.NNZ = 0
	if _, err := s.RegisterDataset(bad); err == nil {
		t.Fatal("sparse recipe with nnz=0 not rejected")
	}
	if _, err := s.RegisterDataset(gaussianSpec("dense")); err != nil {
		t.Fatal(err)
	}
	var st Status
	postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "spmv", Dataset: "dense", Wait: true}, &st)
	if st.State != JobFailed {
		t.Fatalf("spmv over a dense dataset finished %q, want failed", st.State)
	}
}

// TestSparseDatasetCacheAccounting: a sparse recipe's cache footprint is
// its triples, not the logical matrix.
func TestSparseDatasetCacheAccounting(t *testing.T) {
	c := newDatasetCache(1 << 20)
	spec := sparseSpec("sp")
	if got, want := spec.sizeBytes(), int64(spec.NNZ)*3*8; got != want {
		t.Fatalf("sizeBytes = %d, want %d", got, want)
	}
	if _, err := c.register(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.source("sp"); err != nil {
		t.Fatal(err)
	}
	if got := c.residentBytes(); got != spec.sizeBytes() {
		t.Fatalf("residentBytes = %d, want %d", got, spec.sizeBytes())
	}
}

// TestServeSpMVFileDatasetEvicted: spmv over a memory-mapped file dataset
// reads the mapping zero-copy, and the mapping stays valid for as long as
// the kernel reads it. The cache bound is so small that only one dataset is
// ever resident, and each round runs a file job and a memory job at once,
// so the file's source is evicted while a job holds it or is mapped afresh.
// The GC between rounds runs the finalizer that unmaps a dropped source.
// The mapping is read-only, so a kernel that wrote the resident triples
// would fault here. The file job's y must match the same triples served
// from memory bit for bit (run under -race -count=5 as well).
func TestServeSpMVFileDatasetEvicted(t *testing.T) {
	spec := sparseSpec("mem")
	path := filepath.Join(t.TempDir(), "triples.frds")
	if err := dataset.WriteFile(path, spec.materialize()); err != nil {
		t.Fatal(err)
	}
	ms, err := dataset.OpenMappedSource(path)
	if err != nil {
		t.Fatal(err)
	}
	_, sliced := ms.(dataset.RowSlicer)
	ms.Close()
	if !sliced {
		t.Skip("memory mapping unavailable: the zero-copy read is not exercised")
	}
	// The bound holds the memory recipe, or the file, plus x and y
	// (8 x (64+48) B), but never both datasets at once.
	s, _ := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 32},
		MaxConcurrency: 2, TenantQuota: -1, CacheBytes: spec.sizeBytes() + 1<<10})
	if _, err := s.RegisterDataset(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterDataset(DatasetSpec{Name: "file", Kind: "file", Path: path}); err != nil {
		t.Fatal(err)
	}
	p := Params{Rows: spec.Rows, Cols: spec.Dim, Iterations: 2}
	for round := 0; round < 8; round++ {
		evictions := mCacheEvictions.Value()
		file, mem := submitSpMV(t, s, "file", p), submitSpMV(t, s, "mem", p)
		got, want := waitSpMV(t, file).Y, waitSpMV(t, mem).Y
		if mCacheEvictions.Value() == evictions {
			t.Fatalf("round %d evicted nothing; the cache bound must force an eviction every round", round)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("round %d: file y[%d] = %v, memory source gives %v", round, k, got[k], want[k])
			}
		}
		runtime.GC()
	}
}

// submitSpMV admits an spmv job through Server.Submit.
func submitSpMV(t testing.TB, s *Server, dataset string, p Params) *job {
	t.Helper()
	j, err := s.Submit("", "spmv", dataset, p)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// waitSpMV waits for an spmv job and returns its output, failing t if the
// job fails.
func waitSpMV(t testing.TB, j *job) *SpMVOutput {
	t.Helper()
	<-j.done
	st := j.status()
	if st.State != JobDone {
		t.Fatalf("spmv on %q finished %q: %s", j.Dataset, st.State, st.Error)
	}
	return st.Result.(*SpMVOutput)
}
