package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/obs"
)

func TestClusterRunContextCancelled(t *testing.T) {
	// Every split read takes 10ms; with 2 nodes × 2 threads over 200 splits
	// the run would take seconds. Cancellation must cut it short on every
	// node at once.
	m := bucketData(2000, 2)
	slow := dataset.NewFaultSource(dataset.NewMemorySource(m),
		dataset.FaultConfig{Latency: 10 * time.Millisecond})
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 2, SplitRows: 10}})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := c.RunContext(ctx, histSpec(2), slow)
	wall := time.Since(t0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if wall > 500*time.Millisecond {
		t.Fatalf("cancelled cluster run took %v, want well under a second", wall)
	}
}

func TestClusterRunContextPreCancelled(t *testing.T) {
	m := bucketData(100, 2)
	c := New(Config{Nodes: 2, PerNode: freeride.Config{Threads: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx, histSpec(2), dataset.NewMemorySource(m)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestClusterRecoversThroughRetrySource(t *testing.T) {
	// A cluster run over a fault-injected source behind the retry layer must
	// produce the same histogram as the clean run, including over TCP.
	const n, buckets = 3000, 5
	m := bucketData(n, buckets)
	want := expected(m, buckets)
	faulty := dataset.NewRetrySource(
		dataset.NewFaultSource(dataset.NewMemorySource(m),
			dataset.FaultConfig{Rate: 0.3, Seed: 11, FailCount: 2}),
		4, 100*time.Microsecond)
	c := New(Config{Nodes: 3, PerNode: freeride.Config{Threads: 2, SplitRows: 64}, Transport: TCP})
	res, err := c.RunContext(context.Background(), histSpec(buckets), faulty)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Object.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v, want %v", i, got[i], want[i])
		}
	}

	// Without the retry layer the injected faults surface.
	bare := dataset.NewFaultSource(dataset.NewMemorySource(m),
		dataset.FaultConfig{Rate: 0.3, Seed: 11, FailCount: 2})
	if _, err := c.RunContext(context.Background(), histSpec(buckets), bare); !errors.Is(err, dataset.ErrInjectedFault) {
		t.Fatalf("want injected fault to surface, got %v", err)
	}
}

func TestClusterTimeoutDefaults(t *testing.T) {
	cfg := New(Config{}).cfg
	if cfg.DialTimeout != 2*time.Second || cfg.DialRetries != 2 || cfg.IOTimeout != 10*time.Second {
		t.Fatalf("defaults: %+v", cfg)
	}
	cfg = New(Config{DialRetries: -1}).cfg
	if cfg.DialRetries != 0 {
		t.Fatalf("negative DialRetries should mean none, got %d", cfg.DialRetries)
	}
	cfg = New(Config{DialTimeout: time.Second, DialRetries: 5, IOTimeout: 3 * time.Second}).cfg
	if cfg.DialTimeout != time.Second || cfg.DialRetries != 5 || cfg.IOTimeout != 3*time.Second {
		t.Fatalf("explicit values overridden: %+v", cfg)
	}
}

func TestDialRetryExhaustsBudget(t *testing.T) {
	// Port 1 is unassigned and refuses connections immediately; the dial
	// must be retried DialRetries times and then fail.
	cfg := Config{DialTimeout: 100 * time.Millisecond, DialRetries: 2}
	before := obs.Default.Value("cluster_dial_retries_total")
	if _, err := dialRetry("127.0.0.1:1", cfg); err == nil {
		t.Fatal("dial to a closed port should fail")
	}
	if d := obs.Default.Value("cluster_dial_retries_total") - before; d != 2 {
		t.Fatalf("cluster_dial_retries_total delta = %d, want 2", d)
	}
}

// stubNetErr implements net.Error for the timeout classifier.
type stubNetErr struct{ timeout bool }

func (e stubNetErr) Error() string   { return "stub" }
func (e stubNetErr) Timeout() bool   { return e.timeout }
func (e stubNetErr) Temporary() bool { return false }

func TestIsTimeout(t *testing.T) {
	if !isTimeout(stubNetErr{timeout: true}) {
		t.Fatal("timeout net.Error not classified")
	}
	if isTimeout(stubNetErr{timeout: false}) || isTimeout(errors.New("plain")) {
		t.Fatal("non-timeout errors misclassified")
	}
}
