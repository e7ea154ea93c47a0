package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/serve"
)

// serve_mixed is the only workload through the serving frontend: admission,
// queue, dataset cache, advisor, the serve kernels and JSON both ways. It is
// a closed loop: serveClients callers, each sending its next request when
// the previous reply has arrived. The dataset cache holds three quarters of
// the registered working set, so some jobs re-materialize their input.
const (
	serveClients   = 2
	serveBlock     = 8  // requests per client per round: 4 kmeans, 2 spmv, 2 pca
	serveBlocks    = 20 // a client's list is 160 requests, replayed when exhausted
	serveKMRows    = 100000
	serveKMDim     = 10
	serveKMK       = 20
	serveKMIters   = 3
	serveSpDim     = 100000
	serveSpNNZ     = 200000
	servePCARows   = 10000
	servePCADim    = 32
	serveCacheFrac = 0.75
	serveRefReps   = 9
)

// serveRequest is one entry of a client's list, with the reference its
// reply is checked against.
type serveRequest struct {
	body []byte
	kind string
	rows int64
	want any // *apps.KMeansResult, []float64 (spmv y) or *servePCAWant
}

type servePCAWant struct{ mean, variance []float64 }

type serveMixed struct {
	seed  int64
	scale float64
	srv   *serve.Server
	http  *http.Server
	url   string
	lists [serveClients][]serveRequest
	next  int // next block of every client's list
	// replies are the last round's, and registerS the time each dataset
	// registration took: the layer suite reads both.
	replies   []serveReply
	registerS []float64
	// reference inputs: the commonest request run on a bare engine.
	refData, refInit *dataset.Matrix
}

func newServeMixed(seed int64, scale float64) workload {
	return &serveMixed{seed: seed, scale: scale}
}

func (w *serveMixed) setup() error {
	kmRows := scaled(serveKMRows, w.scale, 4*serveKMK)
	spDim, spNNZ := scaled(serveSpDim, w.scale, 64), scaled(serveSpNNZ, w.scale, 256)
	pcaRows := scaled(servePCARows, w.scale, 64)

	specs := []serve.DatasetSpec{
		{Name: "g0", Kind: "gaussian", Rows: kmRows, Dim: serveKMDim, Groups: serveKMK, Seed: w.seed},
		{Name: "g1", Kind: "gaussian", Rows: kmRows, Dim: serveKMDim, Groups: serveKMK / 2, Seed: w.seed + 1},
		{Name: "g2", Kind: "gaussian", Rows: kmRows, Dim: serveKMDim, Groups: 2 * serveKMK, Seed: w.seed + 2},
		{Name: "sp", Kind: "sparse", Rows: spDim, Dim: spDim, NNZ: spNNZ, Seed: w.seed + 3},
		// One uniform recipe per client, a column apart: see pcaSpecs.
		{Name: "un0", Kind: "uniform", Rows: pcaRows, Dim: servePCADim, Seed: w.seed + 4},
		{Name: "un1", Kind: "uniform", Rows: pcaRows, Dim: servePCADim + 1, Seed: w.seed + 5},
	}
	pcaSpecs := specs[4:]
	working := int64(spNNZ) * 3 * 8
	for _, s := range append(specs[:3:3], pcaSpecs...) {
		working += int64(s.Rows) * int64(s.Dim) * 8
	}

	w.srv = serve.New(serve.Config{
		Engines:        1,
		Engine:         freeride.Config{Threads: benchThreads},
		MaxConcurrency: serveClients,
		CacheBytes:     int64(serveCacheFrac * float64(working)),
	})
	w.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.url = "http://" + ln.Addr().String()
	w.http = &http.Server{Handler: w.srv.Handler()}
	go w.http.Serve(ln) // returns when teardown shuts the server down

	w.registerS = nil
	for _, s := range specs {
		if err := w.register(s); err != nil {
			return err
		}
	}

	// References, independent of the serve kernels: the sequential k-means
	// per gaussian recipe, a triple loop for spmv, plain loops for pca.
	kmCfg := apps.KMeansConfig{K: serveKMK, Iterations: serveKMIters, Engine: freeride.Config{Threads: benchThreads}}
	var kmWant [3]*apps.KMeansResult
	for i, s := range specs[:3] {
		points, _ := dataset.GaussianMixture(s.Rows, s.Dim, s.Groups, s.Seed)
		init := firstRows(points, serveKMK)
		if kmWant[i], err = apps.KMeansSeq(points, init, kmCfg); err != nil {
			return err
		}
		if i == 0 {
			w.refData, w.refInit = points, init
		}
	}
	spWant := sparseRecipeSpMV(specs[3])
	// The serve pca kernel reads its first pass's Snapshot after releasing
	// the object to the session pool, so two concurrent pca jobs of one
	// shape overwrite each other's mean (a defect of the seed, left for its
	// own issue). The pool is keyed by shape: with recipes of different
	// width per client no two jobs in flight share one, and no operation
	// fails.
	var pcaWant [serveClients]*servePCAWant
	for c, s := range pcaSpecs {
		pcaWant[c] = plainPCA(dataset.UniformMatrix(s.Rows, s.Dim, s.Seed, 0, 1))
	}

	request := w.request
	rng := rand.New(rand.NewSource(w.seed))
	for c := range w.lists {
		for b := 0; b < serveBlocks; b++ {
			block := make([]serveRequest, 0, serveBlock)
			for i := 0; i < serveBlock/2; i++ {
				// The three gaussian recipes take turns, so every seed asks
				// for each as often; the shuffle below decides the order.
				g := (b*serveBlock/2 + i + c) % 3
				block = append(block, serveRequest{
					body: request(c, "kmeans", specs[g].Name, serve.Params{K: serveKMK, Iterations: serveKMIters}),
					kind: "kmeans", rows: int64(kmRows) * serveKMIters, want: kmWant[g],
				})
			}
			for i := 0; i < serveBlock/4; i++ {
				block = append(block,
					serveRequest{
						body: request(c, "spmv", "sp", serve.Params{Rows: spDim, Cols: spDim}),
						kind: "spmv", rows: int64(spNNZ), want: spWant,
					},
					serveRequest{
						body: request(c, "pca", pcaSpecs[c].Name, serve.Params{}),
						kind: "pca", rows: 2 * int64(pcaRows), want: pcaWant[c],
					})
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			// Every round opens with an spmv request from each client. Two
			// spmv jobs in flight at once are the server's largest footprint;
			// left to the shuffle they coincide in some seeds and not in
			// others, and peak_rss_mb then measures the seed.
			first := slices.IndexFunc(block, func(r serveRequest) bool { return r.kind == "spmv" })
			block[0], block[first] = block[first], block[0]
			w.lists[c] = append(w.lists[c], block...)
		}
	}
	w.next = 0
	return nil
}

// register posts one dataset recipe and records how long the server took.
func (w *serveMixed) register(s serve.DatasetSpec) error {
	body, err := json.Marshal(s)
	if err != nil {
		return err
	}
	t0 := time.Now()
	resp, err := http.Post(w.url+"/v1/datasets", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	w.registerS = append(w.registerS, time.Since(t0).Seconds())
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering dataset %s: HTTP %d", s.Name, resp.StatusCode)
	}
	return nil
}

// request encodes one synchronous job submission. Each client is its own
// tenant, so the per-tenant quota does not serialize the two.
func (w *serveMixed) request(client int, kernel, ds string, p serve.Params) []byte {
	body, err := json.Marshal(serve.JobRequest{
		Kernel: kernel, Dataset: ds, Tenant: fmt.Sprintf("client%d", client), Params: p, Wait: true,
	})
	if err != nil {
		panic(err) // a struct of strings and ints always encodes
	}
	return body
}

func (w *serveMixed) teardown() error {
	if w.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.http.Shutdown(ctx)
	if derr := w.srv.Drain(ctx); err == nil {
		err = derr
	}
	if cerr := w.srv.Close(); err == nil {
		err = cerr
	}
	w.http, w.srv, w.refData, w.refInit = nil, nil, nil, nil
	w.lists = [serveClients][]serveRequest{}
	return err
}

// sparseRecipeSpMV recomputes the sparse recipe's triples and y = A·x with a
// plain loop. The generator is the recipe's wire contract (a dataset is its
// recipe, re-materialized after eviction), restated here so the check does
// not go through the code it checks.
func sparseRecipeSpMV(s serve.DatasetSpec) []float64 {
	y := make([]float64, s.Rows)
	r := s.Seed
	for i := 0; i < s.NNZ; i++ {
		r = r*6364136223846793005 + 1442695040888963407
		row := uint64(r) >> 33 % uint64(s.Rows)
		col := uint64(r) >> 12 % uint64(s.Dim)
		val := float64(int64(uint64(r)>>45%17) - 8)
		y[row] += val * float64(col%7+1)
	}
	return y
}

func plainPCA(m *dataset.Matrix) *servePCAWant {
	n := float64(m.Rows)
	w := &servePCAWant{mean: make([]float64, m.Cols), variance: make([]float64, m.Cols)}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			w.mean[j] += v
		}
	}
	for j := range w.mean {
		w.mean[j] /= n
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			d := v - w.mean[j]
			w.variance[j] += d * d
		}
	}
	for j := range w.variance {
		w.variance[j] /= n
	}
	return w
}

// serveReply is one request's outcome, kept until the check runs.
type serveReply struct {
	req     *serveRequest
	code    int
	status  serveStatus
	latency float64
}

// serveStatus is the part of serve.Status the benchmark reads.
type serveStatus struct {
	State         string          `json:"state"`
	QueueMillis   float64         `json:"queue_ms"`
	ServiceMillis float64         `json:"service_ms"`
	Result        json.RawMessage `json:"result"`
}

// job is one round: every client sends its next block of requests, one at a
// time. The job_s samples are the request latencies, the wall is the round.
func (w *serveMixed) job(_ bool, jt *jobTrace) (jobOut, error) {
	block := w.next % serveBlocks
	w.next++
	replies := make([][]serveReply, serveClients)
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqs := w.lists[c][block*serveBlock : (block+1)*serveBlock]
			for i := range reqs {
				r, err := w.send(&reqs[i], jt)
				if err != nil {
					errs[c] = err
					return
				}
				replies[c] = append(replies[c], r)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	jt.pop()
	for _, err := range errs {
		if err != nil {
			return jobOut{}, err
		}
	}
	out := jobOut{wall: wall, classes: map[string]int64{}}
	var all []serveReply
	for _, rs := range replies {
		for _, r := range rs {
			out.samples = append(out.samples, r.latency)
			out.rows += r.req.rows
			out.classes[r.req.kind]++
			all = append(all, r)
		}
	}
	w.replies = all
	out.check = func() (int, int) {
		failed := 0
		for _, r := range all {
			if !r.ok() {
				failed++
				fmt.Fprintf(os.Stderr, "serve_mixed: %s request failed its check: HTTP %d, state %q\n", r.req.kind, r.code, r.status.State)
			}
		}
		return len(all), failed
	}
	return out, nil
}

// send posts one synchronous job and times it from the first byte sent to
// the reply decoded. A refusal (429) or an error status is a reply, counted
// as a failed operation by the check; only a transport error aborts the run.
func (w *serveMixed) send(req *serveRequest, jt *jobTrace) (serveReply, error) {
	t0 := time.Now()
	span := jt.t.begin(jt.job, jt.parent(), "serve", "POST /v1/jobs "+req.kind)
	resp, err := http.Post(w.url+"/v1/jobs", "application/json", bytes.NewReader(req.body))
	if err != nil {
		return serveReply{}, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	jt.t.end(span)
	if err != nil {
		return serveReply{}, err
	}
	r := serveReply{req: req, code: resp.StatusCode}
	span = jt.t.begin(jt.job, jt.parent(), "client", "decode")
	if resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(body, &r.status)
	}
	jt.t.end(span)
	r.latency = time.Since(t0).Seconds()
	return r, err
}

// ok checks one reply against its reference: counts and integer results
// exact, floating-point results to 1e-9 relative.
func (r serveReply) ok() bool {
	if r.code != http.StatusOK || r.status.State != string(serve.JobDone) {
		return false
	}
	switch want := r.req.want.(type) {
	case *apps.KMeansResult:
		var got serve.KMeansOutput
		if json.Unmarshal(r.status.Result, &got) != nil || len(got.Centroids) != len(want.Counts) {
			return false
		}
		cents := dataset.NewMatrix(len(got.Centroids), want.Centroids.Cols)
		for c, row := range got.Centroids {
			if len(row) != cents.Cols {
				return false
			}
			copy(cents.Row(c), row)
		}
		return kmeansMismatch(cents, got.Counts, want) == 0
	case []float64:
		var got serve.SpMVOutput
		return json.Unmarshal(r.status.Result, &got) == nil && slices.Equal(got.Y, want)
	case *servePCAWant:
		var got serve.PCAOutput
		if json.Unmarshal(r.status.Result, &got) != nil || len(got.Mean) != len(want.mean) || len(got.Variance) != len(want.variance) {
			return false
		}
		for j := range want.mean {
			if !relClose(got.Mean[j], want.mean[j], 1e-9) || !relClose(got.Variance[j], want.variance[j], 1e-9) {
				return false
			}
		}
		return true
	}
	return false
}

// reference runs the commonest request's work — k-means on the first
// gaussian recipe — on a bare engine session, with no server in the way. One
// such job takes tens of milliseconds, so it is the median of serveRefReps.
func (w *serveMixed) reference() (float64, error) {
	cfg := apps.KMeansConfig{K: serveKMK, Iterations: serveKMIters, Engine: freeride.Config{Threads: benchThreads}}
	ts := make([]float64, serveRefReps)
	for i := range ts {
		t0 := time.Now()
		if _, err := apps.KMeansManualFR(w.refData, w.refInit, cfg); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts), nil
}
