package obs

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"
)

// WriteReport writes a human-readable summary of every non-zero metric in
// the registry, grouped by subsystem prefix (the token before the first
// underscore). Nanosecond counters (families ending in "_ns_total") are
// shown both raw and as durations, so the report maps directly onto the
// Prometheus exposition while staying readable after a benchmark run.
func WriteReport(w io.Writer, r *Registry) {
	samples := r.Snapshot()
	groups := map[string][]Sample{}
	var order []string
	for _, s := range samples {
		if s.Value == 0 {
			continue
		}
		g := s.Name
		if i := strings.IndexByte(g, '_'); i > 0 {
			g = g[:i]
		}
		if _, seen := groups[g]; !seen {
			order = append(order, g)
		}
		groups[g] = append(groups[g], s)
	}
	hists := r.HistSnapshot()
	fmt.Fprintln(w, "== obs report ==")
	if len(order) == 0 && !anyHistActivity(hists) {
		fmt.Fprintln(w, "  (no activity recorded)")
		return
	}
	for _, g := range order {
		fmt.Fprintf(w, "%s:\n", g)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		for _, s := range groups[g] {
			val := formatValue(s)
			if strings.HasSuffix(s.Name, "_ns_total") {
				val = fmt.Sprintf("%s\t(%v)", val, time.Duration(int64(s.Value)).Round(time.Microsecond))
			}
			fmt.Fprintf(tw, "  %s%s\t%s\n", s.Name, s.Labels, val)
		}
		tw.Flush()
	}
	writeHistReport(w, hists)
	if dropped := r.Value("obs_trace_events_dropped_total"); dropped > 0 {
		fmt.Fprintf(w, "warning: %d trace span events dropped by retention bounds — raise the trace/event-log limits or scrape /trace more often\n", dropped)
	}
}

// anyHistActivity reports whether any histogram has observations.
func anyHistActivity(hists []HistSample) bool {
	for _, h := range hists {
		if h.State.Count > 0 {
			return true
		}
	}
	return false
}

// writeHistReport summarizes every histogram with observations: count and
// log-bucket quantiles, rendered as durations (histograms record seconds).
func writeHistReport(w io.Writer, hists []HistSample) {
	printed := false
	var tw *tabwriter.Writer
	for _, h := range hists {
		if h.State.Count == 0 {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "latency (log-bucket quantiles):")
			tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			printed = true
		}
		q := func(p float64) string {
			return secondsDuration(h.State.Quantile(p)).String()
		}
		fmt.Fprintf(tw, "  %s%s\tn=%d\tp50≤%s\tp90≤%s\tp99≤%s\n",
			h.Name, h.Labels, h.State.Count, q(0.50), q(0.90), q(0.99))
	}
	if printed {
		tw.Flush()
	}
}

// secondsDuration converts a seconds reading to a rounded time.Duration.
func secondsDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond)
}
