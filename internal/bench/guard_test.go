package bench

import (
	"context"
	"strings"
	"testing"
	"time"

	"chapelfreeride/internal/dataset"
	"chapelfreeride/internal/freeride"
	"chapelfreeride/internal/robj"
)

// runPass executes one engine pass whose user Combine sleeps for the given
// duration, making the combination share controllable.
func runPass(t *testing.T, combineSleep time.Duration) {
	t.Helper()
	m := dataset.UniformMatrix(2000, 4, 3, 0, 1)
	spec := freeride.Spec{
		Object: freeride.ObjectSpec{Groups: 1, Elems: 4, Op: robj.OpAdd},
		Reduction: func(a *freeride.ReductionArgs) error {
			for i := 0; i < a.NumRows; i++ {
				for j, v := range a.Row(i) {
					a.Accumulate(0, j, v)
				}
			}
			return nil
		},
	}
	if combineSleep > 0 {
		spec.Combine = func(o *robj.Object) error { time.Sleep(combineSleep); return nil }
	}
	if _, err := freeride.New(freeride.Config{Threads: 2}).RunContext(context.Background(), spec, dataset.NewMemorySource(m)); err != nil {
		t.Fatal(err)
	}
}

func TestCombineShareGuardTriggers(t *testing.T) {
	before := SnapshotPhases()
	runPass(t, 50*time.Millisecond) // combine dwarfs the tiny reduction
	share, total := CombineShareSince(before)
	if total < 50*time.Millisecond {
		t.Fatalf("total engine time %v, want >= 50ms", total)
	}
	if share < 0.5 {
		t.Fatalf("combine share %.2f, want >= 0.5 with a sleeping Combine", share)
	}
	diag, ok := CheckCombineShare(before, 0.25)
	if ok {
		t.Fatal("guard should trip when combine share exceeds the budget")
	}
	if !strings.Contains(diag, "combine-share guard") {
		t.Fatalf("diagnostic missing context: %q", diag)
	}
}

func TestCombineShareGuardPassesOnHealthyRun(t *testing.T) {
	before := SnapshotPhases()
	runPass(t, 0)
	if diag, ok := CheckCombineShare(before, 0.9); !ok {
		t.Fatalf("guard tripped on a healthy run: %s", diag)
	}
}

func TestCombineShareGuardDisabled(t *testing.T) {
	before := SnapshotPhases()
	runPass(t, 20*time.Millisecond)
	if _, ok := CheckCombineShare(before, 0); !ok {
		t.Fatal("maxShare <= 0 must disable the guard")
	}
}
