// Package verify is the translate-time static checker for the
// Chapel→FREERIDE pipeline. The paper's translation is a compiler pass:
// reductions that cannot be mapped onto FREERIDE are rejected before any C
// is emitted. This package is the runtime analog of that front-end
// discipline — it checks a reduction plan (the declarative parts of a
// ReductionClass bound to a dataset type and an optimization level) and a
// FREERIDE spec before any worker starts, and reports problems as
// structured, compiler-style diagnostics instead of worker-pool panics.
//
// The package is deliberately free of project dependencies: internal/core
// and internal/freeride both lower their inputs into the neutral Plan /
// SpecPlan IR defined in plan.go and call CheckPlan / CheckSpec. That keeps
// the dependency graph acyclic (core depends on verify, never the reverse)
// and makes every check testable from raw numbers.
package verify

import (
	"fmt"
	"strings"
)

// Severity grades a diagnostic. Errors reject the plan (Translate, EmitC,
// and engine runs refuse to proceed); warnings document legal-but-degraded
// shapes (e.g. opt-3 without a block kernel falls back to the opt-2
// execution shape); infos are advisory.
type Severity int

const (
	// SeverityError rejects the plan.
	SeverityError Severity = iota
	// SeverityWarning flags a legal plan that will not behave as the
	// requested optimization level suggests.
	SeverityWarning
	// SeverityInfo is advisory.
	SeverityInfo
)

// String returns the compiler-style severity name.
func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	case SeverityInfo:
		return "info"
	default:
		return fmt.Sprintf("severity(%d)", int(s))
	}
}

// Code identifies one diagnostic class. Codes are stable across releases so
// tools (and tests) can match on them rather than on message text.
type Code string

// Plan-level codes (classes bound to a dataset type and opt level).
const (
	// CodeNoKernel: the class declares no per-element kernel.
	CodeNoKernel Code = "FRV001"
	// CodeNotAllReal: the dataset is not an all-real layout, so it has no
	// word-aligned linearized form for FREERIDE to scan.
	CodeNotAllReal Code = "FRV002"
	// CodeBadPath: the access path does not resolve through the type.
	CodeBadPath Code = "FRV003"
	// CodeBadLevels: the access path does not give two-level addressing
	// (FREERIDE's simple 2-D array view).
	CodeBadLevels Code = "FRV004"
	// CodeUnaligned: the linearized layout is not 8-byte word aligned.
	CodeUnaligned Code = "FRV005"
	// CodeBadOptLevel: the requested optimization level does not exist.
	CodeBadOptLevel Code = "FRV006"
	// CodeBadObjectShape: the reduction-object shape has no cells.
	CodeBadObjectShape Code = "FRV007"
	// CodeWordCount: the linearized word count disagrees with the
	// rows×row-stride product the emitted loop nest assumes.
	CodeWordCount Code = "FRV008"
	// CodeOOBOffset: the hoisted-index loop nest can touch a linearized
	// offset outside the buffer.
	CodeOOBOffset Code = "FRV010"
	// CodeMapNotTotal: the index map is degenerate (non-positive stride or
	// negative base), so it is not total over the split domain.
	CodeMapNotTotal Code = "FRV011"
	// CodeMapNotInjective: two distinct (row, k) indices map to the same
	// linearized offset, so accumulation order would become visible.
	CodeMapNotInjective Code = "FRV012"
	// CodeTableOOB: an inspector-materialized index table holds an entry
	// outside its declared bound, so the executor's table walk would touch
	// a cell or gather offset outside the object/vector it targets.
	CodeTableOOB Code = "FRV013"
	// CodeTableNotTotal: an index table does not cover its declared domain
	// (one entry per split-domain element, or row pointers from 0 that
	// never decrease and end at the domain), so some executor iterations
	// would have no mapping.
	CodeTableNotTotal Code = "FRV014"
	// CodeHotShape: a hot variable has a shape the boxed accessors cannot
	// walk without a dynamic-type panic.
	CodeHotShape Code = "FRV020"
	// CodeHotNotAllReal: opt-2 linearization needs all-real hot state.
	CodeHotNotAllReal Code = "FRV021"
	// CodeOpt3NoBlockKernel (warning): opt-3 requested but the class
	// declares no BlockKernel; execution falls back to the opt-2 shape.
	CodeOpt3NoBlockKernel Code = "FRV030"
)

// Analysis codes (internal/analyze): statically-provable cost/contention
// pathologies found by the translate-time plan analysis. None reject the
// plan — they document execution shapes the advisor steers around.
const (
	// CodeWriteHotspot (warning): every split's writes land on one object
	// cell (a 1-cell object, or an inspector scatter table whose hottest
	// cell absorbs most entries). Per-cell locks and CAS serialize on that
	// cell; full replication is the only strategy with no per-update
	// synchronization to contend on.
	CodeWriteHotspot Code = "FRV050"
	// CodeFootprintBudget (warning): the per-worker write-set footprint
	// (replication mirror / dense fused-flush buffer) exceeds the
	// configured cache budget, so replicated copies thrash and every
	// dense flush sweeps more state than the cache holds.
	CodeFootprintBudget Code = "FRV051"
	// CodeDegenerateSkew (info): an inspector scatter table shows
	// degenerate alias skew — a few cells absorb most writes while the
	// touched set stays far smaller than the object (4096 cells or more).
	// Split costs are then uneven, which the advisor answers with work
	// stealing.
	CodeDegenerateSkew Code = "FRV052"
)

// Spec-level codes (FREERIDE specs submitted to the engine).
const (
	// CodeNoReduction: the spec has neither Reduction nor BlockReduction.
	CodeNoReduction Code = "FRV040"
	// FRV041–FRV044 are retired and never reused. FRV041 (LocalInit
	// without LocalCombine) and FRV043 (BlockReduction with LocalInit)
	// named a per-worker side channel the engine no longer has; FRV042
	// (BlockReduction without an object) and FRV044 (Combine without an
	// object) are special cases of FRV045.

	// CodeNoState: the spec declares no reduction object (a zero shape),
	// the only state a pass carries.
	CodeNoState Code = "FRV045"
)

// Diagnostic is one verifier finding, printable compiler-style.
type Diagnostic struct {
	// Pos locates the finding in the plan: the class name, "data",
	// "hot[i]", "spec", or a combination ("kmeans: hot[0]").
	Pos string
	// Severity grades the finding.
	Severity Severity
	// Code is the stable diagnostic class.
	Code Code
	// Msg is the human-readable explanation.
	Msg string
}

// String renders the diagnostic compiler-style:
//
//	kmeans: error[FRV010]: data: loop nest touches words [0,96) of a 64-word buffer
func (d Diagnostic) String() string {
	if d.Pos == "" {
		return fmt.Sprintf("%s[%s]: %s", d.Severity, d.Code, d.Msg)
	}
	return fmt.Sprintf("%s: %s[%s]: %s", d.Pos, d.Severity, d.Code, d.Msg)
}

// Diagnostics is an ordered finding list.
type Diagnostics []Diagnostic

// HasErrors reports whether any diagnostic has error severity.
func (ds Diagnostics) HasErrors() bool {
	for _, d := range ds {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func (ds Diagnostics) Errors() Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Severity == SeverityError {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns only the warning-severity diagnostics.
func (ds Diagnostics) Warnings() Diagnostics {
	var out Diagnostics
	for _, d := range ds {
		if d.Severity == SeverityWarning {
			out = append(out, d)
		}
	}
	return out
}

// Render formats all diagnostics, one per line, compiler-style.
func (ds Diagnostics) Render() string {
	lines := make([]string, len(ds))
	for i, d := range ds {
		lines[i] = d.String()
	}
	return strings.Join(lines, "\n")
}

// Err returns an *Error carrying the diagnostics when any has error
// severity, and nil otherwise. Warnings alone never produce an error.
func (ds Diagnostics) Err() error {
	if !ds.HasErrors() {
		return nil
	}
	return &Error{Diags: ds}
}

// Error is the error form of a rejected plan: it satisfies the error
// interface for plumbing through existing return paths while keeping the
// full structured diagnostic list attached for tools that want it.
type Error struct {
	Diags Diagnostics
}

// Error returns the first error diagnostic, noting how many more findings
// the verifier produced.
func (e *Error) Error() string {
	errs := e.Diags.Errors()
	if len(errs) == 0 {
		return "verify: no error diagnostics"
	}
	if len(e.Diags) == 1 {
		return errs[0].String()
	}
	return fmt.Sprintf("%s (and %d more diagnostics)", errs[0], len(e.Diags)-1)
}

// AsError extracts the structured diagnostics from an error returned by a
// verifier-gated entry point, or nil when err carries none.
func AsError(err error) *Error {
	if e, ok := err.(*Error); ok { //nolint:errorlint — Error is never wrapped by this package
		return e
	}
	return nil
}

// errorf appends an error diagnostic.
func errorf(ds Diagnostics, pos string, code Code, format string, args ...any) Diagnostics {
	return append(ds, Diagnostic{Pos: pos, Severity: SeverityError, Code: code, Msg: fmt.Sprintf(format, args...)})
}

// warnf appends a warning diagnostic.
func warnf(ds Diagnostics, pos string, code Code, format string, args ...any) Diagnostics {
	return append(ds, Diagnostic{Pos: pos, Severity: SeverityWarning, Code: code, Msg: fmt.Sprintf(format, args...)})
}
