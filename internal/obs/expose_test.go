package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition format.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("robj_updates_total", "reduction-object cell updates",
		Label{"strategy", "replication"}).Add(42)
	r.Counter("robj_updates_total", "reduction-object cell updates",
		Label{"strategy", "atomic"}).Add(7)
	r.Counter("freeride_runs_total", "engine passes").Inc()
	r.GaugeFunc("proc_load", "load level", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP freeride_runs_total engine passes
# TYPE freeride_runs_total counter
freeride_runs_total 1
# HELP proc_load load level
# TYPE proc_load gauge
proc_load 1.5
# HELP robj_updates_total reduction-object cell updates
# TYPE robj_updates_total counter
robj_updates_total{strategy="atomic"} 7
robj_updates_total{strategy="replication"} 42
`
	if b.String() != want {
		t.Fatalf("prometheus exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

func TestLabelQuoting(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "x", Label{"k", `a"b\c`}).Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `x_total{k="a\"b\\c"} 1`) {
		t.Fatalf("label value not escaped:\n%s", b.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	Default.Counter("obs_test_endpoint_total", "endpoint test counter").Add(3)
	srv := httptest.NewServer(NewMux())
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "obs_test_endpoint_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "freeride_metrics") {
		t.Fatalf("/debug/vars missing freeride_metrics:\n%s", body)
	}
	if body := get("/trace"); !strings.Contains(body, "runs") {
		t.Fatalf("/trace missing runs:\n%s", body)
	}
	if body := get("/report"); !strings.Contains(body, "obs report") {
		t.Fatalf("/report malformed:\n%s", body)
	}
}
