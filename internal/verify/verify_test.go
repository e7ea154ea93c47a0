package verify

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// goodAccess is a clean 2-level data access: 10 rows × 4-word runs, dense.
func goodAccess() Access {
	return Access{Name: "data", Elems: 10, InnerLen: 4, U0: 4, Off0: 0, U1: 1, WordLen: 40, Levels: 2, AllReal: true}
}

func goodPlan() *Plan {
	d := goodAccess()
	return &Plan{
		Class: "kmeans", Opt: 2, OptName: "opt-2",
		HasKernel: true,
		Object:    Shape{Groups: 3, Elems: 5},
		Data:      &d,
	}
}

// codes extracts the diagnostic codes in order.
func codes(ds Diagnostics) []Code {
	out := make([]Code, len(ds))
	for i, d := range ds {
		out[i] = d.Code
	}
	return out
}

func hasCode(ds Diagnostics, c Code, sev Severity) bool {
	for _, d := range ds {
		if d.Code == c && d.Severity == sev {
			return true
		}
	}
	return false
}

func TestCheckPlanClean(t *testing.T) {
	ds := CheckPlan(goodPlan())
	if len(ds) != 0 {
		t.Fatalf("clean plan produced diagnostics:\n%s", ds)
	}
}

// TestCheckPlanRejections is the table-driven pin for every rejected plan
// shape: each mutation must produce the exact code at the exact severity,
// with the message naming the facts a user needs to fix the class.
func TestCheckPlanRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(p *Plan)
		code    Code
		sev     Severity
		msgPart string
	}{
		{
			name:    "no kernel",
			mutate:  func(p *Plan) { p.HasKernel = false },
			code:    CodeNoKernel,
			sev:     SeverityError,
			msgPart: "needs a class with a kernel",
		},
		{
			name:    "bad opt level",
			mutate:  func(p *Plan) { p.Opt, p.OptName = 7, "opt(7)" },
			code:    CodeBadOptLevel,
			sev:     SeverityError,
			msgPart: "unknown optimization level opt(7)",
		},
		{
			name:    "empty object shape",
			mutate:  func(p *Plan) { p.Object = Shape{} },
			code:    CodeBadObjectShape,
			sev:     SeverityError,
			msgPart: "shape 0x0 has no cells",
		},
		{
			name:    "negative object shape",
			mutate:  func(p *Plan) { p.Object = Shape{Groups: -1, Elems: 5} },
			code:    CodeBadObjectShape,
			sev:     SeverityError,
			msgPart: "-1x5",
		},
		{
			name:    "non-real data",
			mutate:  func(p *Plan) { p.Data.AllReal = false },
			code:    CodeNotAllReal,
			sev:     SeverityError,
			msgPart: "all-real dataset",
		},
		{
			name:    "wrong levels",
			mutate:  func(p *Plan) { p.Data.Levels = 3 },
			code:    CodeBadLevels,
			sev:     SeverityError,
			msgPart: "2-level addressing",
		},
		{
			name:    "out-of-bounds offset",
			mutate:  func(p *Plan) { p.Data.Off0 = 8 }, // last row now runs past the buffer
			code:    CodeOOBOffset,
			sev:     SeverityError,
			msgPart: "touches words [8,48) of a 40-word buffer",
		},
		{
			name:    "index map not total",
			mutate:  func(p *Plan) { p.Data.U1 = 0 },
			code:    CodeMapNotTotal,
			sev:     SeverityError,
			msgPart: "not total",
		},
		{
			name: "index map not injective",
			mutate: func(p *Plan) {
				// Row stride 2 < row span 4: rows alias. Widen the buffer so
				// only injectivity fails, not bounds.
				p.Data.U0 = 2
				p.Data.WordLen = 2*9 + 4
				p.Data.Elems = (2*9 + 4) / 2 // keep the word count consistent
			},
			code:    CodeMapNotInjective,
			sev:     SeverityError,
			msgPart: "not injective",
		},
		{
			name: "word count mismatch",
			mutate: func(p *Plan) {
				p.Data.WordLen = 44 // 4 spare words the row count cannot explain
			},
			code:    CodeWordCount,
			sev:     SeverityError,
			msgPart: "holds 44 words but 10 rows x 4 words/row = 40",
		},
		{
			name: "hot var not all-real at opt-2",
			mutate: func(p *Plan) {
				h := goodAccess()
				h.Name, h.AllReal = "hot[0]", false
				p.Hot = []Access{h}
			},
			code:    CodeHotNotAllReal,
			sev:     SeverityError,
			msgPart: "all-real hot state",
		},
		{
			name:    "opt-3 without block kernel",
			mutate:  func(p *Plan) { p.Opt, p.OptName = 3, "opt-3" },
			code:    CodeOpt3NoBlockKernel,
			sev:     SeverityWarning,
			msgPart: "falls back to the opt-2 per-element shape",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := goodPlan()
			tc.mutate(p)
			ds := CheckPlan(p)
			if !hasCode(ds, tc.code, tc.sev) {
				t.Fatalf("want %s at %s, got %v:\n%s", tc.code, tc.sev, codes(ds), ds)
			}
			found := false
			for _, d := range ds {
				if d.Code == tc.code && strings.Contains(d.Msg, tc.msgPart) {
					found = true
				}
			}
			if !found {
				t.Fatalf("no %s diagnostic mentions %q:\n%s", tc.code, tc.msgPart, ds)
			}
			wantErr := tc.sev == SeverityError
			if gotErr := ds.Err() != nil; gotErr != wantErr {
				t.Fatalf("Err() = %v, want error=%v", ds.Err(), wantErr)
			}
		})
	}
}

func TestCheckPlanBoxedHotSkipsLinearChecks(t *testing.T) {
	p := goodPlan()
	p.Opt, p.OptName = 1, "opt-1"
	p.Hot = []Access{{Name: "hot[0]", Boxed: true}}
	if ds := CheckPlan(p); len(ds) != 0 {
		t.Fatalf("boxed hot var at opt-1 should be clean, got:\n%s", ds)
	}
}

func TestCheckSpec(t *testing.T) {
	good := SpecPlan{HasReduction: true, Object: Shape{Groups: 2, Elems: 3}}
	if ds := CheckSpec(good); len(ds) != 0 {
		t.Fatalf("clean spec produced diagnostics:\n%s", ds)
	}
	tests := []struct {
		name    string
		plan    SpecPlan
		code    Code
		msgPart string
	}{
		{
			name:    "no reduction",
			plan:    SpecPlan{Object: Shape{Groups: 1, Elems: 1}},
			code:    CodeNoReduction,
			msgPart: "Spec.Reduction (or BlockReduction) is required",
		},
		{
			name:    "block reduction without object",
			plan:    SpecPlan{HasBlockReduction: true, HasReduction: true},
			code:    CodeNoState,
			msgPart: "declares no reduction object",
		},
		{
			name:    "no state at all",
			plan:    SpecPlan{HasReduction: true},
			code:    CodeNoState,
			msgPart: "declares no reduction object",
		},
		{
			name:    "one zero dimension",
			plan:    SpecPlan{HasReduction: true, Object: Shape{Groups: 3, Elems: 0}},
			code:    CodeBadObjectShape,
			msgPart: "3x0",
		},
		{
			name:    "negative object shape",
			plan:    SpecPlan{HasReduction: true, Object: Shape{Groups: -2, Elems: 1}},
			code:    CodeBadObjectShape,
			msgPart: "-2x1",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			ds := CheckSpec(tc.plan)
			if !hasCode(ds, tc.code, SeverityError) {
				t.Fatalf("want %s, got %v:\n%s", tc.code, codes(ds), ds)
			}
			if !strings.Contains(fmt.Sprint(ds), tc.msgPart) {
				t.Fatalf("diagnostics do not mention %q:\n%s", tc.msgPart, ds)
			}
		})
	}
}

// TestDiagnosticRendering pins the compiler-style output format end to end:
// position, severity, bracketed code, message — and the Error wrapper's
// first-finding summary.
func TestDiagnosticRendering(t *testing.T) {
	d := Diagnostic{Pos: "kmeans: data", Severity: SeverityError, Code: CodeOOBOffset, Msg: "loop nest touches words [0,96) of a 64-word buffer"}
	want := "kmeans: data: error[FRV010]: loop nest touches words [0,96) of a 64-word buffer"
	if d.String() != want {
		t.Fatalf("String() = %q, want %q", d.String(), want)
	}
	if got := (Diagnostic{Severity: SeverityWarning, Code: CodeOpt3NoBlockKernel, Msg: "m"}).String(); got != "warning[FRV030]: m" {
		t.Fatalf("posless String() = %q", got)
	}

	ds := Diagnostics{
		d,
		{Pos: "kmeans", Severity: SeverityWarning, Code: CodeOpt3NoBlockKernel, Msg: "fallback"},
	}
	if got := fmt.Sprint(ds); !strings.Contains(got, "error[FRV010]") || !strings.Contains(got, "warning[FRV030]") {
		t.Fatalf("diagnostics = %q", got)
	}
	err := ds.Err()
	if err == nil {
		t.Fatal("Err() = nil with an error diagnostic present")
	}
	if !strings.Contains(err.Error(), "FRV010") || !strings.Contains(err.Error(), "1 more diagnostic") {
		t.Fatalf("Error() = %q", err.Error())
	}
	var ve *Error
	if !errors.As(err, &ve) || len(ve.Diags) != 2 {
		t.Fatalf("Err() lost diagnostics: %+v", ve)
	}
	if (Diagnostics{{Severity: SeverityWarning}}).Err() != nil {
		t.Fatal("warnings alone must not produce an error")
	}
	if len(ds.Errors()) != 1 || len(ds.Warnings()) != 1 {
		t.Fatalf("Errors/Warnings filters wrong: %d/%d", len(ds.Errors()), len(ds.Warnings()))
	}
}
