package verify

import (
	"fmt"
	"strings"
	"testing"
)

// goodTables returns a clean scatter/gather table pair: 6 entries whose
// CSR row pointers place them in a 4-cell object (rows 0, 0, 1, 2, 3, 3)
// and whose gather offsets index a 5-element hot vector.
func goodTables() []TableAccess {
	return []TableAccess{
		{Name: "rowPtr", Domain: 6, Entries: []int32{0, 2, 3, 4, 6}, Bound: 4},
		{Name: "in", Domain: 6, Entries: []int32{4, 1, 0, 2, 4, 3}, Bound: 5},
	}
}

func goodTablePlan() *Plan {
	p := goodPlan()
	p.Tables = goodTables()
	return p
}

func TestCheckPlanTablesClean(t *testing.T) {
	ds := CheckPlan(goodTablePlan())
	if len(ds) != 0 {
		t.Fatalf("clean table plan produced diagnostics:\n%s", ds)
	}
}

// TestCheckPlanTablesAliasedTargetsLegal pins the design decision that
// scatter tables need not be injective: a push reduction aliasing many
// entries onto one cell is merged by the associative accumulate.
func TestCheckPlanTablesAliasedTargetsLegal(t *testing.T) {
	p := goodTablePlan()
	p.Tables[0].Entries = []int32{0, 0, 0, 6, 6}
	if ds := CheckPlan(p); len(ds) != 0 {
		t.Fatalf("fully aliased scatter table must be legal, got:\n%s", ds)
	}
}

// TestCheckPlanEmptyTableClean pins the empty-matrix edge case: a zero-nnz
// source lowers to zero-domain tables, which are total and trivially in
// bounds (Bound may even be zero when nothing is ever looked up): row
// pointers that are all 0, and an empty gather table.
func TestCheckPlanEmptyTableClean(t *testing.T) {
	p := goodTablePlan()
	for _, rowPtr := range []TableAccess{
		{Name: "rowPtr", Domain: 0, Entries: []int32{0, 0, 0, 0, 0}, Bound: 4},
		{Name: "rowPtr", Domain: 0, Entries: []int32{0}, Bound: 0},
	} {
		p.Tables = []TableAccess{rowPtr, {Name: "in", Domain: 0, Entries: nil, Bound: 0}}
		if ds := CheckPlan(p); len(ds) != 0 {
			t.Fatalf("empty tables %v must be legal, got:\n%s", rowPtr.Entries, ds)
		}
	}
}

// TestCheckPlanTableRejections is the table-driven pin for every rejected
// index-table shape: exact code, exact severity, and a message naming the
// offending entry or count.
func TestCheckPlanTableRejections(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(p *Plan)
		code    Code
		msgPart string
	}{
		{
			name:    "short table",
			mutate:  func(p *Plan) { p.Tables[1].Entries = p.Tables[1].Entries[:4] },
			code:    CodeTableNotTotal,
			msgPart: "4 entries for a domain of 6",
		},
		{
			name:    "overlong table",
			mutate:  func(p *Plan) { p.Tables[1].Entries = append(p.Tables[1].Entries, 0) },
			code:    CodeTableNotTotal,
			msgPart: "7 entries for a domain of 6",
		},
		{
			name:    "negative domain",
			mutate:  func(p *Plan) { p.Tables[1].Domain = -1 },
			code:    CodeTableNotTotal,
			msgPart: "domain of -1",
		},
		{
			name:    "entry past bound",
			mutate:  func(p *Plan) { p.Tables[1].Entries[3] = 5 },
			code:    CodeTableOOB,
			msgPart: "entry 3 maps to 5, outside the target space [0,5)",
		},
		{
			name:    "negative entry",
			mutate:  func(p *Plan) { p.Tables[1].Entries[0] = -2 },
			code:    CodeTableOOB,
			msgPart: "entry 0 maps to -2",
		},
		{
			name:    "zero bound with entries",
			mutate:  func(p *Plan) { p.Tables[1].Bound = 0 },
			code:    CodeTableOOB,
			msgPart: "needs Bound >= 1",
		},
		{
			name:    "row pointers one short",
			mutate:  func(p *Plan) { p.Tables[0].Entries = p.Tables[0].Entries[:4] },
			code:    CodeTableNotTotal,
			msgPart: "4 pointers for 4 rows and a domain of 6",
		},
		{
			name:    "negative row count",
			mutate:  func(p *Plan) { p.Tables[0].Bound = -1 },
			code:    CodeTableNotTotal,
			msgPart: "5 pointers for -1 rows",
		},
		{
			name:    "row pointers not from zero",
			mutate:  func(p *Plan) { p.Tables[0].Entries[0] = 1 },
			code:    CodeTableNotTotal,
			msgPart: "row pointers start at 1",
		},
		{
			name:    "decreasing row pointer",
			mutate:  func(p *Plan) { p.Tables[0].Entries[2] = 1 },
			code:    CodeTableNotTotal,
			msgPart: "decrease from 2 to 1 at row 1",
		},
		{
			name:    "row pointers short of the domain",
			mutate:  func(p *Plan) { p.Tables[0].Entries[4] = 5 },
			code:    CodeTableNotTotal,
			msgPart: "row pointers end at 5 for a domain of 6",
		},
		{
			name:    "row pointers past the domain",
			mutate:  func(p *Plan) { p.Tables[0].Domain = 5 },
			code:    CodeTableNotTotal,
			msgPart: "row pointers end at 6 for a domain of 5",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p := goodTablePlan()
			tc.mutate(p)
			ds := CheckPlan(p)
			if !hasCode(ds, tc.code, SeverityError) {
				t.Fatalf("want error %s, got:\n%s", tc.code, ds)
			}
			if !strings.Contains(fmt.Sprint(ds), tc.msgPart) {
				t.Errorf("diagnostics missing %q:\n%s", tc.msgPart, ds)
			}
		})
	}
}
