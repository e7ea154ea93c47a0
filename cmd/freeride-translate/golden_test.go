package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chapelfreeride/internal/verify"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update-golden (the emitc golden idiom: the checked-in file is
// the reviewed reference; inspect the diff before committing).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// render runs the analysis and concatenates both streams with markers, so
// one golden file pins the full compiler-style transcript: stdout reports
// AND stderr diagnostics, in emission order within each stream.
func render(t *testing.T, targets []analysisTarget, threads int, asJSON bool) (string, int) {
	t.Helper()
	var out, errw bytes.Buffer
	code := runAnalysis(targets, threads, asJSON, &out, &errw)
	return "--- stdout ---\n" + out.String() + "--- stderr ---\n" + errw.String(), code
}

// TestAnalyzeGoldenAll pins the -analyze report for every built-in app at
// fixed parameters. The sparse targets run the seeded synthetic inspector,
// so the conflict histograms (and hence the advice) are deterministic.
func TestAnalyzeGoldenAll(t *testing.T) {
	targets, err := analysisTargets("all", 4, 3, 100, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, code := render(t, targets, 8, false)
	if code != 0 {
		t.Fatalf("clean built-in plans exited %d:\n%s", code, got)
	}
	checkGolden(t, "analyze_all", got)
}

// TestAnalyzeGoldenJSON pins the -analyze-json machine shape for one dense
// and one sparse class.
func TestAnalyzeGoldenJSON(t *testing.T) {
	kmeans, err := analysisTargets("kmeans", 4, 3, 100, 256)
	if err != nil {
		t.Fatal(err)
	}
	degree, err := analysisTargets("degree", 4, 3, 100, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, code := render(t, append(kmeans, degree...), 4, true)
	if code != 0 {
		t.Fatalf("JSON analysis exited %d:\n%s", code, got)
	}
	checkGolden(t, "analyze_json", got)
}

// TestAnalyzeGoldenDiagnostics pins the multi-diagnostic transcript:
// verifier errors and warnings interleaved with the FRV050+ analysis
// advisories, per target in encounter order (verifier findings first, then
// the profile's), across multiple targets in input order.
func TestAnalyzeGoldenDiagnostics(t *testing.T) {
	// Target 1: a plan that is simultaneously out of bounds (FRV013, error),
	// word-count inconsistent (FRV014, error), and whose 512x512 object
	// blows the cache budget (FRV051, warning).
	broken := &verify.Plan{
		Class: "broken-loop", Opt: 2, OptName: "opt-2", HasKernel: true,
		Object: verify.Shape{Groups: 512, Elems: 512},
		Data: &verify.Access{
			Name: "data", Elems: 100, InnerLen: 4,
			U0: 4, U1: 1, WordLen: 350, Levels: 2, AllReal: true,
		},
	}
	// Target 2: structurally fine, but opt-3 without a block kernel
	// (FRV030, warning) reducing into a single cell (FRV050, warning).
	hotspot := &verify.Plan{
		Class: "hotspot", Opt: 3, OptName: "opt-3", HasKernel: true,
		Object: verify.Shape{Groups: 1, Elems: 1},
		Data: &verify.Access{
			Name: "data", Elems: 100, InnerLen: 4,
			U0: 4, U1: 1, WordLen: 400, Levels: 2, AllReal: true,
		},
	}
	// Target 3: CSR row pointers that place only 3 of the 4 entries
	// (FRV014, error); the profile still folds the 3 rows they do place.
	badTable := &verify.Plan{
		Class: "bad-table", Opt: 3, OptName: "opt-3", HasKernel: true, HasBlockKernel: true,
		Object: verify.Shape{Groups: 8, Elems: 1},
		Tables: []verify.TableAccess{
			{Name: "rowPtr", Domain: 4, Entries: []int32{0, 1, 2, 3, 3, 3, 3, 3, 3}, Bound: 8},
		},
	}
	targets := []analysisTarget{
		{name: "broken-loop", plan: broken},
		{name: "hotspot", plan: hotspot},
		{name: "bad-table", plan: badTable},
	}
	got, code := render(t, targets, 8, false)
	if code != 1 {
		t.Fatalf("plans with error diagnostics exited %d, want 1:\n%s", code, got)
	}
	checkGolden(t, "analyze_diagnostics", got)
}
