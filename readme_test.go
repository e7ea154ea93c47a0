package chapelfreeride_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docs are the prose files whose references the tests below keep live.
var docs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// runLine matches a doc command that runs a program from the repo, with the
// rest of its line.
var runLine = regexp.MustCompile(`go run \./(cmd/[A-Za-z0-9_-]+)([^\n]*)`)

// TestReadmeRunLinesNameLiveDirs keeps the docs' run lines honest: every
// `go run ./cmd/<x>` names a directory that exists, and every -flag on the
// line is one cmd/<x> defines, so deleting or renaming a command or a flag
// without touching the docs fails here.
func TestReadmeRunLinesNameLiveDirs(t *testing.T) {
	n := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runLine.FindAllSubmatch(text, -1) {
			n++
			dir := string(m[1])
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s runs ./%s, which is not a directory", doc, dir)
				continue
			}
			defined := definedFlags(t, dir)
			for _, name := range lineFlags(string(m[2])) {
				if !defined[name] {
					t.Errorf("%s runs ./%s with -%s, which it does not define", doc, dir, name)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("the docs have no `go run ./cmd/<x>` lines")
	}
}

// lineFlags returns the flag names on the arguments of one run line, up to
// a shell comment, pipe, redirection or background marker.
func lineFlags(args string) []string {
	var out []string
	for _, tok := range strings.Fields(args) {
		if strings.ContainsAny(tok[:1], "#|&>;") {
			break
		}
		name := strings.TrimLeft(tok, "-")
		if len(name) == len(tok) || name == "" || !('a' <= name[0] && name[0] <= 'z' || 'A' <= name[0] && name[0] <= 'Z') {
			continue // an operand or a negative number
		}
		name, _, _ = strings.Cut(name, "=")
		out = append(out, name)
	}
	return out
}

// flagDefiners are the flag and FlagSet methods the commands define flags
// with; each takes the flag's name as its first argument.
var flagDefiners = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Float64": true, "String": true, "Duration": true,
}

// definedFlags collects the names the command in dir defines with the flag
// package, read from its non-test sources.
func definedFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !flagDefiners[sel.Sel.Name] || len(call.Args) == 0 {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					out[name] = true
				}
			}
			return true
		})
	}
	return out
}

// testName matches a test, fuzz target or benchmark name; a trailing *
// makes it a prefix.
var testName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// testFunc matches the declaration of a test, fuzz target or benchmark.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)

// TestDocsNameLiveTests keeps the docs' test citations honest: every
// Test…, Fuzz… or Benchmark… name in README, DESIGN and EXPERIMENTS is a
// function in the tree (benchmark/ included), or with a trailing * the
// prefix of one, so deleting or renaming a test the docs cite fails here.
func TestDocsNameLiveTests(t *testing.T) {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllSubmatch(src, -1) {
			funcs = append(funcs, string(m[1]))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, doc := range docs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range testName.FindAllString(string(text), -1) {
			n++
			prefix, isPrefix := strings.CutSuffix(name, "*")
			found := false
			for _, fn := range funcs {
				if fn == name || isPrefix && strings.HasPrefix(fn, prefix) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which no test file declares", doc, name)
			}
		}
	}
	if n == 0 {
		t.Fatal("the docs cite no tests")
	}
}
