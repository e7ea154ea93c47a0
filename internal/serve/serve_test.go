package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
	"chapelfreeride/internal/robj"
)

// testServer builds a started server plus an httptest front end.
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postJSON posts v and decodes the response body into out (if non-nil).
func postJSON(t *testing.T, url string, v any, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %q: %v", raw, err)
		}
	}
	return resp
}

// sleepKernel returns a kernel that sleeps (cancellably) and records the
// tenant-tagged completion into order.
func sleepKernel(d time.Duration, mu *sync.Mutex, order *[]string, tag string) KernelFunc {
	return func(ctx context.Context, _ *freeride.Engine, _ dataset.Source, _ Params) (any, error) {
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if mu != nil {
			mu.Lock()
			*order = append(*order, tag)
			mu.Unlock()
		}
		return map[string]string{"tag": tag}, nil
	}
}

// gaussianSpec is the shared test dataset recipe.
func gaussianSpec(name string) DatasetSpec {
	return DatasetSpec{Name: name, Kind: "gaussian", Rows: 2048, Dim: 4, Groups: 3, Seed: 11}
}

// TestServeKMeansMatchesSequential: a synchronous kmeans job over the HTTP
// API produces the sequential reference implementation's centroids (same
// deterministic first-K-rows initialization, same dataset recipe).
func TestServeKMeansMatchesSequential(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 64}})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "g1",
		Params: Params{K: 3, Iterations: 4}, Wait: true,
	}, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("job state %q, error %q", st.State, st.Error)
	}

	// Reference: the same recipe materialized locally, run sequentially with
	// the identical first-K-rows initialization.
	points, _ := dataset.GaussianMixture(2048, 4, 3, 11)
	init := dataset.NewMatrix(3, 4)
	copy(init.Data, points.Data[:3*4])
	ref, err := apps.KMeansSeq(points, init, apps.KMeansConfig{K: 3, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var out KMeansOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for j := 0; j < 4; j++ {
			got, want := out.Centroids[c][j], ref.Centroids.At(c, j)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("centroid[%d][%d] = %v, reference %v", c, j, got, want)
			}
		}
		if out.Counts[c] != ref.Counts[c] {
			t.Fatalf("cluster %d count %v, reference %v", c, out.Counts[c], ref.Counts[c])
		}
	}
}

// TestServePCAAndEM: the other built-in kernels complete over the API and
// return well-formed payloads (pca variance positive, em weights a
// distribution and one variance per component).
func TestServePCAAndEM(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 128}})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}

	var st Status
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "pca", Dataset: "g1", Wait: true}, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("pca submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("pca job state %q, error %q", st.State, st.Error)
	}
	raw, _ := json.Marshal(st.Result)
	var pca PCAOutput
	if err := json.Unmarshal(raw, &pca); err != nil {
		t.Fatal(err)
	}
	if len(pca.Mean) != 4 || len(pca.Variance) != 4 || pca.TotalVariance <= 0 {
		t.Fatalf("malformed pca payload: %+v", pca)
	}

	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "em", Dataset: "g1", Params: Params{K: 3, Iterations: 3}, Wait: true,
	}, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("em submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("em job state %q, error %q", st.State, st.Error)
	}
	raw, _ = json.Marshal(st.Result)
	var em EMOutput
	if err := json.Unmarshal(raw, &em); err != nil {
		t.Fatal(err)
	}
	if len(em.Variances) != 3 {
		t.Fatalf("em payload has %d variances, want k=3", len(em.Variances))
	}
	var mass float64
	for _, w := range em.Weights {
		if w < 0 {
			t.Fatalf("negative em weight: %+v", em.Weights)
		}
		mass += w
	}
	if math.Abs(mass-1) > 1e-6 {
		t.Fatalf("em weights sum to %v, want 1", mass)
	}
}

// TestDenseKernelsRefuseZeroWidth: every built-in dense kernel fails a job
// over a dataset with rows but no columns instead of returning empty
// centroids.
func TestDenseKernelsRefuseZeroWidth(t *testing.T) {
	eng := freeride.New(freeride.Config{Threads: 1})
	defer eng.Close()
	src := dataset.NewMemorySource(dataset.NewMatrix(10, 0))
	kernels := builtinKernels(1 << 20)
	for _, name := range []string{"kmeans", "pca", "em"} {
		if out, err := kernels[name](context.Background(), eng, src, Params{K: 2}); err == nil {
			t.Errorf("%s over a 10x0 dataset returned %+v, want an error", name, out)
		}
	}
}

// TestAsyncSubmitAndPoll: without wait the API answers 202 immediately and
// the job becomes pollable through its terminal state.
func TestAsyncSubmitAndPoll(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128}})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "g1", Params: Params{K: 2},
	}, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit returned %d", resp.StatusCode)
	}
	if st.ID == "" || (st.State != JobQueued && st.State != JobRunning) {
		t.Fatalf("async submit status: %+v", st)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur Status
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if cur.State == JobDone {
			break
		}
		if cur.State == JobFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %q", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/no-such-job"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job id returned %d, want 404", resp.StatusCode)
		}
	}
}

// TestBackpressure429: a full admission queue rejects synchronously with
// 429 and a positive Retry-After hint, and the rejected counter moves.
func TestBackpressure429(t *testing.T) {
	s, ts := testServer(t, Config{
		Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128},
		MaxConcurrency: 1, QueueDepth: 2, TenantQuota: -1,
	})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	if err := s.RegisterKernel("block", func(ctx context.Context, _ *freeride.Engine, _ dataset.Source, _ Params) (any, error) {
		select {
		case <-block:
			return "ok", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}); err != nil {
		t.Fatal(err)
	}
	defer close(block)

	rejectedBefore := obs.Default.Value("serve_jobs_rejected_total")
	req := JobRequest{Kernel: "block", Dataset: "g1"}
	var saw429 bool
	for i := 0; i < 8; i++ {
		resp := postJSON(t, ts.URL+"/v1/jobs", req, nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			ra := resp.Header.Get("Retry-After")
			if ra == "" || ra == "0" {
				t.Fatalf("429 without a positive Retry-After (got %q)", ra)
			}
		}
	}
	if !saw429 {
		t.Fatal("flooding a depth-2 queue with a wedged runner never produced a 429")
	}
	if got := obs.Default.Value("serve_jobs_rejected_total") - rejectedBefore; got == 0 {
		t.Fatal("serve_jobs_rejected_total never moved")
	}
}

// TestTenantQuotaFairness: with a per-tenant quota of 1 and two runner
// slots, a greedy tenant's pre-loaded backlog cannot hold both slots — the
// fair tenant's single job is dequeued round-robin and finishes long before
// the greedy backlog drains.
func TestTenantQuotaFairness(t *testing.T) {
	s, _ := testServer(t, Config{
		Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128},
		MaxConcurrency: 2, QueueDepth: 64, TenantQuota: 1,
	})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	if err := s.RegisterKernel("greedy", sleepKernel(30*time.Millisecond, &mu, &order, "greedy")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterKernel("fair", sleepKernel(30*time.Millisecond, &mu, &order, "fair")); err != nil {
		t.Fatal(err)
	}

	const greedyJobs = 8
	var jobs []*job
	for i := 0; i < greedyJobs; i++ {
		j, err := s.Submit("greedy", "greedy", "g1", Params{})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	fairJob, err := s.Submit("fair", "fair", "g1", Params{})
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, fairJob)
	for _, j := range jobs {
		<-j.done
	}

	mu.Lock()
	defer mu.Unlock()
	pos := -1
	for i, tag := range order {
		if tag == "fair" {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("fair tenant's job never completed")
	}
	// Quota 1 caps greedy at one running job, so the fair job occupies the
	// second slot as soon as it is submitted: it must finish among the first
	// three completions, not behind the greedy backlog.
	if pos > 2 {
		t.Fatalf("fair tenant's job finished %dth of %d — starved behind the greedy backlog (order %v)",
			pos+1, len(order), order)
	}
}

// TestAdmitQueueRoundRobin pins the dequeue order directly: with three
// tenants queued, claims rotate across tenants instead of draining the
// longest FIFO first.
func TestAdmitQueueRoundRobin(t *testing.T) {
	q := newAdmitQueue(64, 0)
	mk := func(tenant, id string) *job {
		return &job{ID: id, Tenant: tenant, done: make(chan struct{})}
	}
	for _, j := range []*job{
		mk("a", "a1"), mk("a", "a2"), mk("a", "a3"),
		mk("b", "b1"),
		mk("c", "c1"),
	} {
		if err := q.push(j); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	for i := 0; i < 5; i++ {
		j := q.takeLocked()
		if j == nil {
			t.Fatalf("takeLocked returned nil at claim %d", i)
		}
		got = append(got, j.ID)
	}
	want := []string{"a1", "b1", "c1", "a2", "a3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v", got, want)
		}
	}
}

// TestDatasetCacheLRU: a cache sized for one dataset evicts the older
// resident when a second is materialized, and re-serving a resident dataset
// is a hit.
func TestDatasetCacheLRU(t *testing.T) {
	spec1 := DatasetSpec{Name: "d1", Kind: "uniform", Rows: 1024, Dim: 4, Seed: 1}
	spec2 := DatasetSpec{Name: "d2", Kind: "uniform", Rows: 1024, Dim: 4, Seed: 2}
	c := newDatasetCache(spec1.sizeBytes() + spec2.sizeBytes()/2)
	for _, s := range []DatasetSpec{spec1, spec2} {
		if _, err := c.register(s); err != nil {
			t.Fatal(err)
		}
	}
	hits0 := obs.Default.Value("serve_dataset_cache_hits_total")
	miss0 := obs.Default.Value("serve_dataset_cache_misses_total")
	evict0 := obs.Default.Value("serve_dataset_cache_evictions_total")

	if _, err := c.source("d1"); err != nil { // miss, resident
		t.Fatal(err)
	}
	if _, err := c.source("d1"); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := c.source("d2"); err != nil { // miss, evicts d1
		t.Fatal(err)
	}
	if _, err := c.source("d1"); err != nil { // miss again (was evicted)
		t.Fatal(err)
	}
	if got := obs.Default.Value("serve_dataset_cache_hits_total") - hits0; got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := obs.Default.Value("serve_dataset_cache_misses_total") - miss0; got != 3 {
		t.Fatalf("cache misses = %d, want 3", got)
	}
	if got := obs.Default.Value("serve_dataset_cache_evictions_total") - evict0; got < 1 {
		t.Fatal("no evictions under a byte bound smaller than the working set")
	}
	if used, bound := c.residentBytes(), spec1.sizeBytes()+spec2.sizeBytes()/2; used > bound {
		t.Fatalf("cache holds %d bytes, bound %d", used, bound)
	}

	// Conflicting re-registration is rejected; identical is idempotent.
	if _, err := c.register(spec1); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	changed := spec1
	changed.Seed = 99
	if _, err := c.register(changed); err == nil {
		t.Fatal("conflicting recipe re-registration succeeded")
	}
}

// TestServeFileDataset: a job over a registered binary dataset file (the
// "file" recipe kind, memory-mapped at materialization) produces the same
// centroids as the sequential reference over the identical matrix.
func TestServeFileDataset(t *testing.T) {
	points, _ := dataset.GaussianMixture(2048, 4, 3, 11)
	path := filepath.Join(t.TempDir(), "g.frds")
	if err := dataset.WriteFile(path, points); err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 64}})
	if _, err := s.RegisterDataset(DatasetSpec{Name: "f1", Kind: "file", Path: path}); err != nil {
		t.Fatal(err)
	}

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "f1",
		Params: Params{K: 3, Iterations: 4}, Wait: true,
	}, &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("job state %q, error %q", st.State, st.Error)
	}
	init := dataset.NewMatrix(3, 4)
	copy(init.Data, points.Data[:3*4])
	ref, err := apps.KMeansSeq(points, init, apps.KMeansConfig{K: 3, Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	var out KMeansOutput
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for j := 0; j < 4; j++ {
			got, want := out.Centroids[c][j], ref.Centroids.At(c, j)
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("centroid[%d][%d] = %v, reference %v", c, j, got, want)
			}
		}
	}
}

// TestFileDatasetRegistration: header probing at registration fills the
// shape, cross-checks a caller-supplied one, and rejects bad paths.
func TestFileDatasetRegistration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.frds")
	m := dataset.UniformMatrix(256, 3, 7, 0, 1)
	if err := dataset.WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	c := newDatasetCache(1 << 20)
	if _, err := c.register(DatasetSpec{Name: "f", Kind: "file", Path: path}); err != nil {
		t.Fatal(err)
	}
	got := c.list()[0]
	if got.Rows != 256 || got.Dim != 3 {
		t.Fatalf("registered shape %dx%d, want 256x3 from header", got.Rows, got.Dim)
	}
	// Identical re-registration (with or without the filled shape) is fine.
	if _, err := c.register(DatasetSpec{Name: "f", Kind: "file", Path: path}); err != nil {
		t.Fatalf("idempotent re-register: %v", err)
	}
	// Shape cross-check catches a recipe that disagrees with the file.
	if _, err := c.register(DatasetSpec{Name: "f2", Kind: "file", Path: path, Rows: 999}); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	if _, err := c.register(DatasetSpec{Name: "f3", Kind: "file", Path: filepath.Join(dir, "missing")}); err == nil {
		t.Fatal("missing file must be rejected at registration")
	}
	if _, err := c.register(DatasetSpec{Name: "f4", Kind: "file"}); err == nil {
		t.Fatal("file recipe without path must be rejected")
	}

	// Materialization serves the file's rows and accounts mapped bytes.
	src, err := c.source("f")
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 256*3)
	if err := src.ReadRows(0, 256, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if dst[i] != m.Data[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if mf, ok := src.(dataset.MappedFile); ok && mf.Mapped() {
		if c.residentBytes() != mf.MappedBytes() {
			t.Fatalf("cache accounts %d bytes, mapping is %d", c.residentBytes(), mf.MappedBytes())
		}
	} else if c.residentBytes() != 256*3*8 {
		t.Fatalf("fallback accounting %d bytes, want logical footprint", c.residentBytes())
	}
}

// TestDrainGraceful: drain stops intake (503 for new submissions) while the
// admitted backlog runs to completion, and Drain returns nil.
func TestDrainGraceful(t *testing.T) {
	s := New(Config{
		Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128},
		MaxConcurrency: 1, QueueDepth: 16,
	})
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterKernel("slow", sleepKernel(50*time.Millisecond, nil, nil, "")); err != nil {
		t.Fatal(err)
	}

	var admitted []*job
	for i := 0; i < 3; i++ {
		j, err := s.Submit("t", "slow", "g1", Params{})
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, j)
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Intake must reject as soon as the drain begins.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "slow", Dataset: "g1"}, nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions kept being accepted after Drain started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
	// Every admitted job reached done, not cancelled.
	for i, j := range admitted {
		st := j.status()
		if st.State != JobDone {
			t.Fatalf("admitted job %d drained into state %q (error %q), want done", i, st.State, st.Error)
		}
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz returned %d while draining, want 503", resp.StatusCode)
		}
	}
}

// TestDrainDeadlineCancelsInflight: a drain whose context expires cancels
// the running kernels; every job still reaches a terminal state.
func TestDrainDeadlineCancelsInflight(t *testing.T) {
	s := New(Config{
		Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128},
		MaxConcurrency: 1, QueueDepth: 16,
	})
	s.Start()
	defer s.Close()
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterKernel("wedge", func(ctx context.Context, _ *freeride.Engine, _ dataset.Source, _ Params) (any, error) {
		<-ctx.Done() // only a drain-forced cancel releases this kernel
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit("t", "wedge", "g1", Params{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced drain returned %v, want context.DeadlineExceeded", err)
	}
	if st := j.status(); st.State != JobFailed {
		t.Fatalf("wedged job drained into state %q, want failed", st.State)
	}
}

// TestCustomKernelOverHTTP: a custom reduction spec registered by name is
// submittable like the built-ins — the tentpole's "custom reduction specs
// registered by name" path, exercised end to end with a real engine pass.
func TestCustomKernelOverHTTP(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 64}})
	if _, err := s.RegisterDataset(DatasetSpec{Name: "u1", Kind: "uniform", Rows: 512, Dim: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterKernel("rowcount", func(ctx context.Context, eng *freeride.Engine, src dataset.Source, _ Params) (any, error) {
		res, err := eng.RunContext(ctx, freeride.Spec{
			Object: freeride.ObjectSpec{Groups: 1, Elems: 1, Op: robj.OpAdd},
			Reduction: func(args *freeride.ReductionArgs) error {
				args.Accumulate(0, 0, float64(args.NumRows))
				return nil
			},
		}, src)
		if err != nil {
			return nil, err
		}
		defer eng.Release(res)
		return map[string]float64{"rows": res.Object.Get(0, 0)}, nil
	}); err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "rowcount", Dataset: "u1", Wait: true}, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("custom kernel submit returned %d", resp.StatusCode)
	}
	if st.State != JobDone {
		t.Fatalf("custom kernel job state %q, error %q", st.State, st.Error)
	}
	raw, _ := json.Marshal(st.Result)
	var out map[string]float64
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out["rows"] != 512 {
		t.Fatalf("custom kernel counted %v rows, want 512", out["rows"])
	}
}

// TestDatasetEndpoints: recipes round-trip through the HTTP API and
// validation failures surface as 400/409.
func TestDatasetEndpoints(t *testing.T) {
	_, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	spec := gaussianSpec("api-ds")
	if resp := postJSON(t, ts.URL+"/v1/datasets", spec, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset registration returned %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	var specs []DatasetSpec
	if err := json.NewDecoder(resp.Body).Decode(&specs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(specs) != 1 || specs[0] != spec {
		t.Fatalf("dataset list %+v, want just %+v", specs, spec)
	}
	bad := spec
	bad.Rows = 0
	if resp := postJSON(t, ts.URL+"/v1/datasets", bad, nil); resp.StatusCode != http.StatusBadRequest &&
		resp.StatusCode != http.StatusConflict {
		t.Fatalf("invalid recipe returned %d, want 400/409", resp.StatusCode)
	}
	conflict := spec
	conflict.Seed = 999
	if resp := postJSON(t, ts.URL+"/v1/datasets", conflict, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting recipe returned %d, want 409", resp.StatusCode)
	}
	// Unknown dataset/kernel submissions are 400s.
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "kmeans", Dataset: "nope"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset submit returned %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Kernel: "nope", Dataset: "api-ds"}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kernel submit returned %d, want 400", resp.StatusCode)
	}
}

// TestOversizeRecipesRejected: a generated recipe whose materialized
// footprint (rows×dim×8 bytes, nnz×3×8 for sparse) overflows int64 or
// exceeds twice CacheBytes is refused at registration with 400. The
// overflowing uniform recipe used to register with sizeBytes() == 0, and its
// first job panicked in dataset.NewMatrix on the runner goroutine, taking
// the whole server down.
func TestOversizeRecipesRejected(t *testing.T) {
	// The bound is 2 × 65532 = 131064 bytes. Dense footprints are whole
	// words, so 16383×1 sits exactly on it and 1024×16 is one word over.
	const cacheBytes = 65532
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1},
		CacheBytes: cacheBytes})
	for _, bad := range []DatasetSpec{
		{Name: "overflow", Kind: "uniform", Rows: 1 << 31, Dim: 1 << 31},
		{Name: "overflow-sparse", Kind: "sparse", Rows: 8, Dim: 8, NNZ: 1 << 61},
		{Name: "word-over", Kind: "uniform", Rows: 1024, Dim: 16, Seed: 1},
		{Name: "over-sparse", Kind: "sparse", Rows: 8, Dim: 8, NNZ: 5462},
	} {
		var eb errorBody
		if resp := postJSON(t, ts.URL+"/v1/datasets", bad, &eb); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: registration returned %d, want 400", bad.Name, resp.StatusCode)
		}
		if !strings.Contains(eb.Error, "dataset cache") {
			t.Fatalf("%s: 400 body %q does not name the cache bound", bad.Name, eb.Error)
		}
	}
	if n := len(s.Datasets()); n != 0 {
		t.Fatalf("%d oversize datasets registered, want none", n)
	}
	// A recipe exactly on the bound still registers and serves.
	fits := DatasetSpec{Name: "fits", Kind: "uniform", Rows: 16383, Dim: 1, Seed: 1}
	if resp := postJSON(t, ts.URL+"/v1/datasets", fits, nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("recipe of %d bytes under a %d-byte cache returned %d, want 201",
			fits.sizeBytes(), cacheBytes, resp.StatusCode)
	}
	j, err := s.Submit("t", "pca", "fits", Params{})
	if err != nil {
		t.Fatal(err)
	}
	<-j.done
	if st := j.status(); st.State != JobDone {
		t.Fatalf("pca over the fitting recipe ended %v: %s", st.State, st.Error)
	}
}

// TestOversizedBodiesRejected: a body past maxBodyBytes is refused with 413
// on both POST endpoints, and no dataset is registered.
func TestOversizedBodiesRejected(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1}})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	huge := strings.Repeat("x", maxBodyBytes)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/v1/jobs", JobRequest{Kernel: "kmeans", Dataset: "g1", Tenant: huge}},
		{"/v1/datasets", DatasetSpec{Name: huge, Kind: "gaussian", Rows: 16, Dim: 2, Groups: 1}},
	} {
		var eb errorBody
		resp := postJSON(t, ts.URL+c.path, c.body, &eb)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body returned %d (%q), want 413", c.path, resp.StatusCode, eb.Error)
		}
		if !strings.Contains(eb.Error, "exceeds") {
			t.Fatalf("%s: 413 body %q does not name the limit", c.path, eb.Error)
		}
	}
	if n := len(s.Datasets()); n != 1 {
		t.Fatalf("%d datasets registered, want only the pre-registered one", n)
	}
}

// TestServeMetricsExposed: the serve_* families show up on the mounted
// /metrics endpoint after jobs flow through.
func TestServeMetricsExposed(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128}})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "g1", Params: Params{K: 2}, Wait: true,
	}, &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit returned %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"serve_jobs_total", "serve_jobs_completed_total", "serve_queue_depth",
		"serve_queue_wait_seconds_bucket", "serve_service_seconds_bucket",
	} {
		if !bytes.Contains(body, []byte(family)) {
			t.Fatalf("/metrics missing family %s", family)
		}
	}
}

// TestJobRetention: the finished-job window is bounded — old finished jobs
// become unknown while recent ones stay pollable.
func TestJobRetention(t *testing.T) {
	s, _ := testServer(t, Config{
		Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128},
		MaxConcurrency: 1, RetainJobs: 2, QueueDepth: 32,
	})
	if _, err := s.RegisterDataset(gaussianSpec("g1")); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterKernel("quick", sleepKernel(0, nil, nil, "")); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit("t", "quick", "g1", Params{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.done
		ids = append(ids, j.ID)
	}
	// Give markFinished (which runs just after done closes) a beat.
	time.Sleep(20 * time.Millisecond)
	if _, ok := s.Job(ids[0]); ok {
		t.Fatalf("job %s still pollable past the retention window", ids[0])
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Fatalf("job %s fell out of retention immediately", ids[len(ids)-1])
	}
}

// TestConcurrentLoadSmoke drives a few hundred concurrent synchronous jobs
// through the full HTTP path — a scaled-down closed-loop load, catching
// races under -race.
func TestConcurrentLoadSmoke(t *testing.T) {
	s, ts := testServer(t, Config{
		Engines: 2, Engine: freeride.Config{Threads: 2, SplitRows: 256},
		MaxConcurrency: 8, QueueDepth: 512, TenantQuota: 4,
	})
	if _, err := s.RegisterDataset(DatasetSpec{Name: "small", Kind: "gaussian", Rows: 512, Dim: 4, Groups: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 16, 8
	errs := make(chan error, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", c%4)
			for i := 0; i < perClient; i++ {
				body, _ := json.Marshal(JobRequest{
					Kernel: "kmeans", Dataset: "small", Tenant: tenant,
					Params: Params{K: 2, Iterations: 1}, Wait: true,
				})
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					continue // backpressure is a legal answer under load
				}
				if resp.StatusCode != http.StatusOK || st.State != JobDone {
					errs <- fmt.Errorf("job status %d/%s: %s", resp.StatusCode, st.State, st.Error)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
