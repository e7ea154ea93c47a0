package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
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

// TestServeSpMVShapeRejected: a negative matrix shape, or one past what an
// int32 index table addresses, is a 400 at submission instead of a kernel
// that panics sizing its vectors and kills the server. A shape inferred
// from the triples is bounded too: its job fails. The server answers
// /healthz afterwards.
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
