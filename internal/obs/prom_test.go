package obs

import (
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusLabelEscaping checks that label values containing quotes,
// backslashes, and newlines render escaped (renderLabels quotes with
// strconv.Quote, whose escapes are the Prometheus text-format escapes).
func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	hostile := `quo"te\back` + "\nline"
	r.Counter("esc_total", "escape test", Label{Key: "path", Value: hostile}).Add(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := `esc_total{path="quo\"te\\back\nline"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("exposition missing escaped sample %q:\n%s", want, out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "quo") && strings.Count(line, "\n") > 0 {
			t.Errorf("raw newline leaked into sample line %q", line)
		}
	}
}

// TestPrometheusHistogramMonotonic checks the rendered histogram invariants:
// bucket le bounds strictly increase, cumulative counts never decrease, the
// series ends at le="+Inf", and the +Inf cumulative equals _count.
func TestPrometheusHistogramMonotonic(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", Label{Key: "op", Value: "pass"})
	for _, v := range []float64{1e-7, 0.001, 0.001, 0.25, 3, 1e6} {
		h.Observe(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var (
		lastLE  = -1.0
		lastCum = int64(-1)
		buckets int
		sawInf  bool
		count   int64
	)
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "lat_seconds_bucket"):
			if sawInf {
				t.Fatalf("bucket line after le=+Inf: %q", line)
			}
			buckets++
			le, cum := parseBucketLine(t, line)
			if le == "+Inf" {
				sawInf = true
			} else {
				f, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("bad le %q: %v", le, err)
				}
				if f <= lastLE {
					t.Errorf("le bounds not increasing: %g after %g", f, lastLE)
				}
				lastLE = f
			}
			if cum < lastCum {
				t.Errorf("cumulative count decreased: %d after %d", cum, lastCum)
			}
			lastCum = cum
		case strings.HasPrefix(line, "lat_seconds_count"):
			fields := strings.Fields(line)
			n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q", line)
			}
			count = n
		}
	}
	if buckets == 0 || !sawInf {
		t.Fatalf("exposition rendered %d buckets (inf=%v)", buckets, sawInf)
	}
	if count != 6 || lastCum != count {
		t.Errorf("+Inf cumulative %d vs _count %d, want both 6", lastCum, count)
	}
}

func parseBucketLine(t *testing.T, line string) (le string, cum int64) {
	t.Helper()
	i := strings.Index(line, `le="`)
	if i < 0 {
		t.Fatalf("bucket line without le label: %q", line)
	}
	rest := line[i+len(`le="`):]
	j := strings.IndexByte(rest, '"')
	le = rest[:j]
	fields := strings.Fields(line)
	cum, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
	if err != nil {
		t.Fatalf("bad cumulative in %q: %v", line, err)
	}
	return le, cum
}

// TestPrometheusScrapeRoundTrip renders a registry with counters, gauges,
// and histograms, re-parses the text the way a scraper would, and checks the
// parsed samples match the registry's own readings — the format must survive
// its own round trip, not just eyeballing.
func TestPrometheusScrapeRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_rows_total", "rows", Label{Key: "node", Value: "0"}).Add(11)
	r.Counter("rt_rows_total", "rows", Label{Key: "node", Value: "1"}).Add(22)
	r.GaugeFunc("rt_goroutines", "gauge", func() float64 { return 7 })
	h := r.Histogram("rt_lat_seconds", "latency")
	h.Observe(0.01)
	h.Observe(0.02)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	parsed, types := scrapeParse(t, b.String())

	want := map[string]float64{
		`rt_rows_total{node="0"}`: 11,
		`rt_rows_total{node="1"}`: 22,
		`rt_goroutines`:           7,
		`rt_lat_seconds_count`:    2,
	}
	for k, v := range want {
		got, ok := parsed[k]
		if !ok {
			t.Errorf("scrape lost sample %q; have %v", k, sortedKeys(parsed))
			continue
		}
		if got != v {
			t.Errorf("parsed %q = %g, want %g", k, got, v)
		}
	}
	if got := parsed["rt_lat_seconds_sum"]; got < 0.03-1e-9 || got > 0.03+1e-9 {
		t.Errorf("parsed histogram sum = %g, want 0.03", got)
	}
	for fam, typ := range map[string]string{
		"rt_rows_total":  "counter",
		"rt_goroutines":  "gauge",
		"rt_lat_seconds": "histogram",
	} {
		if types[fam] != typ {
			t.Errorf("TYPE %s = %q, want %q", fam, types[fam], typ)
		}
	}
}

// scrapeParse is a minimal Prometheus text-format parser: it returns every
// sample as name+labels → value plus the declared family types, and fails
// the test on any malformed line.
func scrapeParse(t *testing.T, text string) (map[string]float64, map[string]string) {
	t.Helper()
	samples := map[string]float64{}
	types := map[string]string{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: sample without value separator %q", ln+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", ln+1, valStr, err)
		}
		if strings.Contains(key, "{") && !strings.HasSuffix(key, "}") {
			t.Fatalf("line %d: unterminated label set %q", ln+1, key)
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("line %d: duplicate sample %q", ln+1, key)
		}
		samples[key] = val
	}
	return samples, types
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
