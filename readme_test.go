package chapelfreeride_test

import (
	"os"
	"regexp"
	"testing"
)

// runLine matches a README command that runs a program from the repo.
var runLine = regexp.MustCompile(`go run \./(cmd/[A-Za-z0-9_-]+)`)

// TestReadmeRunLinesNameLiveDirs keeps README.md's run lines honest: every
// `go run ./cmd/<x>` names a directory that exists, so deleting or renaming
// a command without touching the README fails here.
func TestReadmeRunLinesNameLiveDirs(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	lines := runLine.FindAllSubmatch(readme, -1)
	if len(lines) == 0 {
		t.Fatal("README has no `go run ./cmd/<x>` lines")
	}
	for _, m := range lines {
		dir := string(m[1])
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("README runs ./%s, which is not a directory", dir)
		}
	}
}
