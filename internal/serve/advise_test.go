package serve

import (
	"net/http"
	"testing"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
	"chapelfreeride/internal/sched"
)

// TestAdvisedJobStatus: an unpinned built-in job runs full replication
// under dynamic scheduling with the chunk rule's split size, and its status
// echoes the configuration; a custom kernel runs the base configuration.
func TestAdvisedJobStatus(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 128}})
	postJSON(t, ts.URL+"/v1/datasets", gaussianSpec("adv"), nil)

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "adv",
		Params: Params{K: 3, Iterations: 2}, Wait: true,
	}, &st)
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("job = %d %q (%s)", resp.StatusCode, st.State, st.Error)
	}
	if st.Strategy != "replication" || st.Scheduler != "dynamic" {
		t.Fatalf("unpinned job ran %s/%s, want replication/dynamic", st.Strategy, st.Scheduler)
	}

	// The serve_mixed shapes at 2 threads: kmeans 100,000×10, pca
	// 10,000×32, spmv 200,000 triples.
	for _, c := range []struct {
		kernel     string
		rows, cols int
		split      int
	}{
		{"kmeans", 100000, 10, 4096},
		{"pca", 10000, 32, 512},
		{"spmv", 200000, 3, 8192},
	} {
		src := dataset.NewMemorySource(dataset.NewMatrix(c.rows, c.cols))
		cfg := s.planConfig(&job{Kernel: c.kernel}, src)
		if cfg.Strategy != robj.FullReplication || cfg.Scheduler != sched.Dynamic || cfg.SplitRows != c.split || cfg.Threads != 2 {
			t.Fatalf("%s over %d rows: config %+v, want replication/dynamic/%d on 2 threads", c.kernel, c.rows, cfg, c.split)
		}
	}
	src := dataset.NewMemorySource(dataset.NewMatrix(100000, 10))
	if cfg := s.planConfig(&job{Kernel: "custom-thing"}, src); cfg != s.engines[0].Config() {
		t.Fatalf("custom kernel config %+v, want the base %+v", cfg, s.engines[0].Config())
	}
}

// TestPinnedJobOverridesAdvisor: request pins take precedence per knob.
func TestPinnedJobOverridesAdvisor(t *testing.T) {
	s, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 128}})
	postJSON(t, ts.URL+"/v1/datasets", gaussianSpec("pin"), nil)

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "pin",
		Params: Params{K: 3, Iterations: 2, Strategy: "atomic", Scheduler: "worksteal"},
		Wait:   true,
	}, &st)
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("job = %d %q (%s)", resp.StatusCode, st.State, st.Error)
	}
	if st.Strategy != "atomic" || st.Scheduler != "worksteal" {
		t.Fatalf("pins not honored: ran %s/%s", st.Strategy, st.Scheduler)
	}

	// One pinned knob leaves the other to the chunk rule's advice.
	src := dataset.NewMemorySource(dataset.NewMatrix(100000, 10))
	cfg := s.planConfig(&job{Kernel: "kmeans", Params: Params{Strategy: "atomic"}}, src)
	if cfg.Strategy != robj.AtomicCAS || cfg.Scheduler != sched.Dynamic || cfg.SplitRows != 4096 {
		t.Fatalf("strategy pin: config %+v, want atomic/dynamic/4096", cfg)
	}
	cfg = s.planConfig(&job{Kernel: "kmeans", Params: Params{Scheduler: "guided"}}, src)
	if cfg.Strategy != robj.FullReplication || cfg.Scheduler != sched.Guided || cfg.SplitRows != 4096 {
		t.Fatalf("scheduler pin: config %+v, want replication/guided/4096", cfg)
	}
}

// TestPinValidation: unknown strategy/scheduler names are rejected at
// submit with 400, before the job is queued.
func TestPinValidation(t *testing.T) {
	_, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128}})
	postJSON(t, ts.URL+"/v1/datasets", gaussianSpec("badpin"), nil)

	for _, p := range []Params{
		{K: 3, Iterations: 1, Strategy: "optimistic"},
		{K: 3, Iterations: 1, Scheduler: "round-robin"},
	} {
		var body struct {
			Error string `json:"error"`
		}
		resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
			Kernel: "kmeans", Dataset: "badpin", Params: p, Wait: true,
		}, &body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad pin %+v admitted: %d", p, resp.StatusCode)
		}
		if body.Error == "" {
			t.Fatalf("bad pin %+v rejected without an error message", p)
		}
	}
}

// TestEngineForCachesByConfig: advised configurations that differ from the
// base pool get one cached engine per distinct configuration, and the base
// configuration routes back to the pool.
func TestEngineForCachesByConfig(t *testing.T) {
	s := New(Config{Engines: 1, Engine: freeride.Config{Threads: 1, SplitRows: 128}})
	s.Start()
	defer s.Close()

	base := s.engines[0].Config()
	if got := s.engineFor(base); got != s.engines[0] {
		t.Fatal("base config must reuse the pool, not spawn an alt engine")
	}

	alt := base
	for _, st := range robj.Strategies() {
		if st != base.Strategy {
			alt.Strategy = st
			break
		}
	}
	e1 := s.engineFor(alt)
	e2 := s.engineFor(alt)
	if e1 == s.engines[0] || e1 != e2 {
		t.Fatalf("alt config not cached: %p vs %p", e1, e2)
	}
	if len(s.altEngines) != 1 {
		t.Fatalf("alt cache holds %d engines, want 1", len(s.altEngines))
	}
}
