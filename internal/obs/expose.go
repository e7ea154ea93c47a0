package obs

import (
	"expvar"
	"fmt"
	"io"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): families sorted by name, HELP/TYPE emitted once
// per family, samples sorted by label set. Histograms render as classic
// Prometheus histograms: cumulative <name>_bucket{le="..."} series per label
// set (ending at le="+Inf"), plus <name>_sum and <name>_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	samples := r.Snapshot()
	hists := r.HistSnapshot()
	// Both streams arrive sorted by family name; merge them so the combined
	// exposition stays sorted.
	i, j := 0, 0
	lastFamily := ""
	for i < len(samples) || j < len(hists) {
		if i < len(samples) && (j >= len(hists) || samples[i].Name <= hists[j].Name) {
			s := samples[i]
			i++
			if s.Name != lastFamily {
				if err := writeFamilyHeader(w, s.Name, s.Help, typeName(s.Kind)); err != nil {
					return err
				}
				lastFamily = s.Name
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, s.Labels, formatValue(s)); err != nil {
				return err
			}
			continue
		}
		h := hists[j]
		j++
		if h.Name != lastFamily {
			if err := writeFamilyHeader(w, h.Name, h.Help, "histogram"); err != nil {
				return err
			}
			lastFamily = h.Name
		}
		if err := writeHistSample(w, h); err != nil {
			return err
		}
	}
	return nil
}

// writeFamilyHeader emits the HELP (when present) and TYPE lines for a
// metric family.
func writeFamilyHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

// labelsWith appends one key="value" pair to an already-rendered label set.
func labelsWith(ls, key, val string) string {
	pair := key + "=" + strconv.Quote(val)
	if ls == "" {
		return "{" + pair + "}"
	}
	return ls[:len(ls)-1] + "," + pair + "}"
}

// writeHistSample renders one label set of a histogram family: cumulative
// buckets, sum, and count.
func writeHistSample(w io.Writer, h HistSample) error {
	bounds := Buckets()
	var cum int64
	for b, c := range h.State.Counts {
		cum += c
		le := "+Inf"
		if b < len(bounds) {
			le = strconv.FormatFloat(bounds[b], 'g', -1, 64)
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, labelsWith(h.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, h.Labels, strconv.FormatFloat(h.State.Sum, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, h.Labels, h.State.Count)
	return err
}

// Handler serves the registry as Prometheus text.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// publishExpvar exposes the default registry's samples as one expvar map
// under the key "freeride_metrics". Guarded by a Once because expvar panics
// on duplicate names.
var publishExpvar = sync.OnceFunc(func() {
	expvar.Publish("freeride_metrics", expvar.Func(func() any {
		samples := Default.Snapshot()
		m := make(map[string]float64, len(samples))
		for _, s := range samples {
			m[s.Name+s.Labels] = s.Value
		}
		return m
	}))
})

// NewMux builds the observability HTTP mux:
//
//	/metrics       Prometheus text exposition of the Default registry
//	/report        human-readable Report of the Default registry
//	/trace         JSON event log of recent engine passes (obs.Log)
//	/debug/vars    expvar (includes the freeride_metrics map)
//	/debug/pprof/  profiles; worker goroutines carry pprof labels
func NewMux() *http.ServeMux {
	publishExpvar()
	mux := http.NewServeMux()
	mux.Handle("/metrics", Default.Handler())
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteReport(w, Default)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = Log.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}
