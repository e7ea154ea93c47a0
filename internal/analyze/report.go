package analyze

import (
	"fmt"
	"strings"
)

// Report renders the profile and advice as the compiler-style text
// freeride-translate -analyze prints: one block per analyzed plan, facts
// first, then the advice with its rule trace indented beneath it.
// Diagnostics are NOT included — callers interleave them through the same
// verify.Diagnostics renderer as the FRV verifier so errors and warnings
// keep one format.
func (pr *PlanProfile) Report(adv Advice, threads int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== plan analysis: %s (%s, %s) ===\n", pr.Class, pr.OptName, pr.Kind)
	fmt.Fprintf(&b, "domain: %d %s\n", pr.Domain, domainNoun(pr.Kind))
	for _, r := range pr.Reads {
		if r.Boxed {
			fmt.Fprintf(&b, "read %-12s %s, boxed traversal (no static word footprint)\n", r.Name+":", r.Overlap)
			continue
		}
		fmt.Fprintf(&b, "read %-12s %s, %d cells/row (%d-word span), %d bytes total\n",
			r.Name+":", r.Overlap, r.CellsPerRow, r.SpanWordsPerRow, r.FootprintBytes)
	}
	w := pr.Writes
	fmt.Fprintf(&b, "write object:     %s, %dx%d cells (%d bytes)", w.Overlap, w.Groups, w.Elems, w.Bytes)
	if pr.Kind == "inspector" {
		fmt.Fprintf(&b, ", %d touched, aliases max/mean %d/%.1f, skew %.1f, hot-cell share %.0f%%",
			w.TouchedCells, w.MaxAliases, w.MeanAliases, w.Skew, 100*w.HotCellShare)
		if w.Sorted {
			b.WriteString(", row-sorted")
		}
	} else if w.MeanAliases > 0 {
		fmt.Fprintf(&b, ", >=%.1f writes/cell", w.MeanAliases)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "advice (threads=%d): strategy=%s scheduler=%s splitRows=%d\n",
		threads, adv.Strategy, adv.Scheduler, adv.SplitRows)
	for _, t := range adv.Trace {
		fmt.Fprintf(&b, "  - %s\n", t)
	}
	return b.String()
}

func domainNoun(kind string) string {
	if kind == "inspector" {
		return "nonzeros"
	}
	return "rows"
}
