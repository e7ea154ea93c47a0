package chapelfreeride_test

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// runLine matches a README command that runs a program from the repo.
var runLine = regexp.MustCompile(`go run \./((?:examples|cmd)/[A-Za-z0-9_-]+)`)

// TestReadmeRunLinesNameLiveDirs keeps README.md's run lines honest: every
// `go run ./examples/<x>` or `go run ./cmd/<x>` names a directory that
// exists, and every examples/ directory has a run line, so deleting or
// adding an example without touching the README fails here.
func TestReadmeRunLinesNameLiveDirs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, m := range runLine.FindAllSubmatch(readme, -1) {
		dir := string(m[1])
		named[dir] = true
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("README runs ./%s, which is not a directory", dir)
		}
	}
	examples, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(examples) == 0 {
		t.Fatal("no examples/ directories found")
	}
	for _, dir := range examples {
		if st, err := os.Stat(dir); err == nil && st.IsDir() && !named[filepath.ToSlash(dir)] {
			t.Errorf("README has no `go run ./%s` line", filepath.ToSlash(dir))
		}
	}
}
