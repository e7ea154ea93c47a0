package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
