package serve

import (
	"net/http"
	"testing"

	"chapelfreeride/internal/apps"
	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// TestAdvisedJobStatus: an unpinned job gets the plan advisor's execution
// configuration, and the status explains the pick.
func TestAdvisedJobStatus(t *testing.T) {
	_, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 128}})
	postJSON(t, ts.URL+"/v1/datasets", gaussianSpec("adv"), nil)

	var st Status
	resp := postJSON(t, ts.URL+"/v1/jobs", JobRequest{
		Kernel: "kmeans", Dataset: "adv",
		Params: Params{K: 3, Iterations: 2}, Wait: true,
	}, &st)
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("job = %d %q (%s)", resp.StatusCode, st.State, st.Error)
	}
	if !st.Advised {
		t.Fatalf("unpinned job not marked advised: %+v", st)
	}
	if st.Strategy == "" || st.Scheduler == "" {
		t.Fatalf("advised status missing execution config: %+v", st)
	}
	if len(st.AdviceTrace) == 0 {
		t.Fatalf("advised status carries no trace: %+v", st)
	}
}

// TestPinnedJobOverridesAdvisor: request pins take precedence per knob and
// fully pinned jobs are not marked advised.
func TestPinnedJobOverridesAdvisor(t *testing.T) {
	_, ts := testServer(t, Config{Engines: 1, Engine: freeride.Config{Threads: 2, SplitRows: 128}})
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
	if st.Advised {
		t.Fatalf("fully pinned job marked advised: %+v", st)
	}
	if st.Strategy != "atomic" || st.Scheduler != "worksteal" {
		t.Fatalf("pins not honored: ran %s/%s", st.Strategy, st.Scheduler)
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

// TestBuiltinProfiles: admission-time profiles are shape-only (no rows
// read) and cover every built-in kernel, the em profile sized to
// apps.EMClass's object; custom kernels profile as nil and fall back to the
// server defaults with a trace note.
func TestBuiltinProfiles(t *testing.T) {
	src := dataset.NewMemorySource(dataset.NewMatrix(128, 6))
	for _, kernel := range []string{"kmeans", "pca", "em"} {
		pr := builtinProfile(kernel, src, Params{K: 4})
		if pr == nil || pr.Domain != 128 {
			t.Fatalf("%s profile = %+v", kernel, pr)
		}
	}
	em := apps.EMClass(4, 6, nil, nil).Object
	if pr := builtinProfile("em", src, Params{K: 4}); pr.Writes.Cells != em.Groups*em.Elems {
		t.Fatalf("em profile sizes a %d-cell object, apps.EMClass's has %d", pr.Writes.Cells, em.Groups*em.Elems)
	}
	if pr := builtinProfile("kmeans", src, Params{}); pr != nil {
		t.Fatalf("kmeans without K must not profile, got %+v", pr)
	}
	if pr := builtinProfile("custom-thing", src, Params{}); pr != nil {
		t.Fatalf("custom kernel must not profile, got %+v", pr)
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
