package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chapelfreeride/internal/verify"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update-golden: the checked-in file is the reviewed reference,
// so inspect the diff before committing.
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

// transcript joins a run's two streams with markers, so one golden file
// pins the full compiler-style transcript: stdout reports AND stderr
// diagnostics, in emission order within each stream.
func transcript(out, errw *bytes.Buffer) string {
	return "--- stdout ---\n" + out.String() + "--- stderr ---\n" + errw.String()
}

// TestMetaGolden pins the default mode (Fig. 6 metadata plus every level's
// verifier tally) for the built-in dense classes and for a class the
// verifier rejects, and the -decl mode on README's Fig. 6 declarations.
func TestMetaGolden(t *testing.T) {
	fig6 := filepath.Join("testdata", "fig6.chpl")
	cases := []struct {
		golden string
		req    metaRequest
		code   int
	}{
		{"meta_kmeans", metaRequest{class: "kmeans", k: 8, dim: 4}, 0},
		{"meta_pca_cov", metaRequest{class: "pca-cov", dim: 3}, 0},
		// A zero-cluster k-means has a reduction object with no cells: an
		// FRV error at every level, so the command exits 1.
		{"meta_rejected", metaRequest{class: "kmeans", k: 0, dim: 4}, 1},
		{"decl_fig6", metaRequest{decl: fig6, varName: "data", path: "b1, a1"}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			var out, errw bytes.Buffer
			code := runMeta(tc.req, &out, &errw)
			got := transcript(&out, &errw)
			if code != tc.code {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.code, got)
			}
			checkGolden(t, tc.golden, got)
		})
	}
}

// TestMetaRefusals: an unknown class exits 2, and every -decl failure
// (missing file, unknown variable, bad field path) exits 1 with the error
// on stderr.
func TestMetaRefusals(t *testing.T) {
	fig6 := filepath.Join("testdata", "fig6.chpl")
	cases := []struct {
		name string
		req  metaRequest
		code int
		msg  string
	}{
		{"unknown class", metaRequest{class: "nope"}, 2, `unknown class "nope"`},
		{"missing file", metaRequest{decl: filepath.Join("testdata", "missing.chpl")}, 1, "missing.chpl"},
		{"unknown variable", metaRequest{decl: fig6, varName: "nope"}, 1, "nope"},
		{"bad field path", metaRequest{decl: fig6, varName: "data", path: "b2,a1"}, 1, "a1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if code := runMeta(tc.req, &out, &errw); code != tc.code {
				t.Fatalf("exit %d, want %d:\n%s", code, tc.code, transcript(&out, &errw))
			}
			if !strings.Contains(errw.String(), tc.msg) {
				t.Errorf("stderr %q does not mention %q", errw.String(), tc.msg)
			}
		})
	}
}

// render runs the analysis and returns its transcript.
func render(t *testing.T, targets []analysisTarget, threads int, asJSON bool) (string, int) {
	t.Helper()
	var out, errw bytes.Buffer
	code := runAnalysis(targets, threads, asJSON, &out, &errw)
	return transcript(&out, &errw), code
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
