package vet

import (
	"bufio"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantMarkers scans fixture files for "//want:<analyzer>" markers and
// returns file → line → analyzer expectations.
func wantMarkers(t *testing.T, pkgs []*Package) map[string]map[int]string {
	t.Helper()
	want := map[string]map[int]string{}
	for _, pkg := range pkgs {
		for _, fname := range pkg.Filenames {
			f, err := os.Open(fname)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			line := 0
			for sc.Scan() {
				line++
				text := sc.Text()
				i := strings.Index(text, "//want:")
				if i < 0 {
					continue
				}
				name := strings.TrimSpace(text[i+len("//want:"):])
				if want[fname] == nil {
					want[fname] = map[int]string{}
				}
				want[fname][line] = name
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return want
}

// runFixture loads testdata/<name>, runs the analyzer, and matches findings
// against the //want markers exactly: every marker must fire, nothing else
// may.
func runFixture(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under testdata/%s", dir)
	}
	findings := Check(pkgs, []*Analyzer{a})

	want := wantMarkers(t, pkgs)
	got := map[string]map[int]int{} // file → line → count
	for _, f := range findings {
		if got[f.Pos.Filename] == nil {
			got[f.Pos.Filename] = map[int]int{}
		}
		got[f.Pos.Filename][f.Pos.Line]++
	}
	for fname, lines := range want {
		for line, name := range lines {
			if name != a.Name {
				continue
			}
			if got[fname][line] == 0 {
				t.Errorf("%s:%d: expected %s finding, got none", fname, line, name)
			}
		}
	}
	for _, f := range findings {
		if want[f.Pos.Filename] == nil || want[f.Pos.Filename][f.Pos.Line] != a.Name {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

func TestKernelPureFixture(t *testing.T) { runFixture(t, "kernelpure", KernelPure) }

func TestObsCountFixture(t *testing.T) { runFixture(t, "obscount", ObsCount) }

func TestLockOrderFixture(t *testing.T) { runFixture(t, "lockorder", LockOrder) }

// TestInspectorHoistFixture also exercises suppression: the fixture's
// suppressed() call has no //want marker, so runFixture fails if the
// frds:vet-ignore is not honored.
func TestInspectorHoistFixture(t *testing.T) { runFixture(t, "inspectorhoist", InspectorHoist) }

// TestRowAliasFixture also exercises suppression: the fixture's
// suppressed() kernel stores a borrowed view with a frds:vet-ignore, so
// runFixture fails if the suppression is not honored.
func TestRowAliasFixture(t *testing.T) { runFixture(t, "rowalias", RowAlias) }

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("obscount, lockorder")
	if err != nil || len(two) != 2 || two[0].Name != "obscount" {
		t.Fatalf("ByName subset = %v, err %v", two, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown analyzer must error")
	}
}

func TestFindingString(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "lockorder"))
	if err != nil {
		t.Fatal(err)
	}
	findings := Check(pkgs, []*Analyzer{LockOrder})
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	s := findings[0].String()
	if !strings.Contains(s, "locks.go:") || !strings.Contains(s, ": lockorder: ") {
		t.Fatalf("vet-style rendering wrong: %q", s)
	}
}

// TestRepoIsVetClean pins the acceptance criterion: every analyzer runs
// clean over the whole repository. A regression here means either new code
// broke a rule or an analyzer grew a false positive — fix the code or, for
// a justified exception, add a frds:vet-ignore with a reason.
func TestRepoIsVetClean(t *testing.T) {
	root := filepath.Join("..", "..")
	pkgs, err := Load(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("repo load found only %d packages — wrong root?", len(pkgs))
	}
	findings := Check(pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Fatalf("frds-vet is not clean: %d finding(s)", len(findings))
	}
}
