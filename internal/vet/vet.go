// Package vet is a small static-analysis framework for FREERIDE-specific
// correctness rules, plus the five analyzers cmd/frds-vet runs over this
// repository (and over user kernel code): kernelpure, obscount, lockorder,
// inspectorhoist, and rowalias.
//
// The framework is deliberately self-contained on the standard library's
// go/ast and go/parser: the usual route — golang.org/x/tools/go/analysis
// driven through `go vet -vettool` — needs a module dependency this project
// does not take (see DESIGN.md). The shape mirrors x/tools (an Analyzer with
// a Run func over a Pass; findings reported with positions) so the analyzers
// could be ported to the real framework mechanically. Without go/types the
// analyzers are syntactic: they track declared identifiers and constructor
// idioms (eng := freeride.New(...)) instead of resolved types, which is
// precise enough for this codebase and errs on the side of silence for
// shapes it cannot prove.
//
// False positives are suppressed in place with a line comment, on the
// flagged line or the line above:
//
//	//frds:vet-ignore obscount  -- reason
package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer report at a source position.
type Finding struct {
	// Pos is the resolved file position.
	Pos token.Position
	// Analyzer names the rule that fired.
	Analyzer string
	// Msg explains the violation.
	Msg string
}

// String renders the finding vet-style: file:line:col: analyzer: message.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Msg)
}

// Analyzer is one static-analysis rule.
type Analyzer struct {
	// Name is the rule's identifier, used in reports and in
	// frds:vet-ignore suppressions.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run analyzes one package, reporting findings through pass.Report.
	Run func(pass *Pass)
}

// Pass is one analyzer's view of one package under analysis.
type Pass struct {
	// Fset resolves token positions for the package's files.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// analyzer currently running (for Report attribution).
	analyzer *Analyzer
	findings *[]Finding
}

// Report records a finding at node's position.
func (p *Pass) Report(node ast.Node, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(node.Pos()),
		Analyzer: p.analyzer.Name,
		Msg:      fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the five FREERIDE analyzers in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{KernelPure, ObsCount, LockOrder, InspectorHoist, RowAlias}
}

// ByName resolves a comma-separated analyzer list ("" = all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return Analyzers(), nil
	}
	index := map[string]*Analyzer{}
	for _, a := range Analyzers() {
		index[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := index[n]
		if !ok {
			return nil, fmt.Errorf("vet: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Check runs the analyzers over the packages and returns the surviving
// findings sorted by position, with frds:vet-ignore suppressions applied.
func Check(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Pkg: pkg, analyzer: a, findings: &findings}
			a.Run(pass)
		}
	}
	findings = applySuppressions(pkgs, findings)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// suppressPrefix introduces an in-source suppression comment.
const suppressPrefix = "//frds:vet-ignore"

// applySuppressions drops findings covered by a frds:vet-ignore comment on
// the finding's line or the line directly above it.
func applySuppressions(pkgs []*Package, findings []Finding) []Finding {
	// map file → line → set of suppressed analyzer names ("" = all).
	sup := map[string]map[int][]string{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(c.Text)
					if !strings.HasPrefix(text, suppressPrefix) {
						continue
					}
					rest := strings.TrimPrefix(text, suppressPrefix)
					// Allow a trailing justification after "--".
					if i := strings.Index(rest, "--"); i >= 0 {
						rest = rest[:i]
					}
					pos := pkg.Fset.Position(c.Pos())
					m := sup[pos.Filename]
					if m == nil {
						m = map[int][]string{}
						sup[pos.Filename] = m
					}
					names := strings.Fields(rest)
					if len(names) == 0 {
						names = []string{""} // bare ignore suppresses everything
					}
					m[pos.Line] = append(m[pos.Line], names...)
				}
			}
		}
	}
	suppressed := func(f Finding) bool {
		m := sup[f.Pos.Filename]
		if m == nil {
			return false
		}
		for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
			for _, name := range m[line] {
				if name == "" || name == f.Analyzer {
					return true
				}
			}
		}
		return false
	}
	out := findings[:0]
	for _, f := range findings {
		if !suppressed(f) {
			out = append(out, f)
		}
	}
	return out
}

// walkStack walks node, calling fn with each node and the stack of its
// ancestors (outermost first, not including node itself).
func walkStack(node ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// rootIdent unwraps selector/index/star/paren chains to the base identifier,
// or nil when the base is not a plain identifier (e.g. a call result).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
