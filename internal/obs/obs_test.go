package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_hits_total", "hits")
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Value("test_hits_total"); got != workers*perWorker {
		t.Fatalf("registry value = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterNilReceiver(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
}

func TestCounterIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", Label{"k", "v"})
	b := r.Counter("x_total", "other help ignored", Label{"k", "v"})
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	other := r.Counter("x_total", "x", Label{"k", "w"})
	if other == a {
		t.Fatal("different labels must return a distinct counter")
	}
}

func TestConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	counters := make([]*Counter, 16)
	for i := range counters {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			counters[i] = r.Counter("shared_total", "shared")
			counters[i].Inc()
		}(i)
	}
	wg.Wait()
	for _, c := range counters[1:] {
		if c != counters[0] {
			t.Fatal("concurrent registration must converge on one counter")
		}
	}
	if got := r.Value("shared_total"); got != int64(len(counters)) {
		t.Fatalf("shared counter = %d, want %d", got, len(counters))
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 1.5
	r.GaugeFunc("test_level", "level", func() float64 { return v })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 1.5 || snap[0].Kind != KindGauge {
		t.Fatalf("snapshot = %+v", snap)
	}
	v = 2.5
	if got := r.Snapshot()[0].Value; got != 2.5 {
		t.Fatalf("gauge not re-read: %v", got)
	}
}

func TestReportSkipsZeroAndGroups(t *testing.T) {
	r := NewRegistry()
	r.Counter("alpha_ops_total", "ops").Add(3)
	r.Counter("alpha_idle_ns_total", "idle").Add(1500)
	r.Counter("beta_zero_total", "never incremented")
	var b strings.Builder
	WriteReport(&b, r)
	out := b.String()
	if !strings.Contains(out, "alpha_ops_total") || !strings.Contains(out, "alpha:") {
		t.Fatalf("report missing alpha group:\n%s", out)
	}
	if strings.Contains(out, "beta_zero_total") {
		t.Fatalf("report must skip zero counters:\n%s", out)
	}
	if !strings.Contains(out, "(2µs)") {
		t.Fatalf("report must humanize ns counters:\n%s", out)
	}
}
