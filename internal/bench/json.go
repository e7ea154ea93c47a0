package bench

import (
	"encoding/json"
	"io"
	"time"
)

// Metric is one machine-readable measurement: which version ran, under what
// execution configuration, and the cost per op in nanoseconds. The op unit
// is experiment-defined but consistent within one experiment (abl-fuse uses
// one input row processed per reduction pass), so ratios between versions
// and threads are comparable across scales and machines.
type Metric struct {
	// Workload distinguishes applications within one experiment
	// ("kmeans", "pca"); empty for single-workload experiments.
	Workload string `json:"workload,omitempty"`
	// Version is the code version measured (e.g. "opt-2", "opt-3").
	Version string `json:"version"`
	// Threads is the engine worker count.
	Threads int `json:"threads"`
	// Scheduler and Strategy record the engine configuration when the
	// experiment sweeps them; empty means the engine default.
	Scheduler string `json:"scheduler,omitempty"`
	Strategy  string `json:"strategy,omitempty"`
	// NsPerOp is the measured cost per op in nanoseconds.
	NsPerOp int64 `json:"ns_per_op"`
	// RowsPerSec is the ingestion throughput behind this measurement
	// (abl-ingest); 0 for experiments that report only per-op cost.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
	// ReadaheadDepth is the prefetch pipeline depth the calibration pass
	// chose for this measurement (abl-ingest's bin-boxed rows); 0 when the
	// source has no prefetch layer.
	ReadaheadDepth int `json:"readahead_depth,omitempty"`
	// InspectorNs is the translate-time inspector cost (COO→CSR sort +
	// index-table materialization) behind this measurement, in nanoseconds;
	// 0 for dense workloads, which have no inspector. Reported separately
	// from NsPerOp so table construction is never hidden inside pass
	// latency.
	InspectorNs int64 `json:"inspector_ns,omitempty"`
	// IndexTableBytes is the size of the inspector-materialized index
	// tables behind this measurement; 0 for dense workloads.
	IndexTableBytes int64 `json:"index_table_bytes,omitempty"`
}

// ReportParams is the subset of Params a report records — enough to rerun
// the measurement.
type ReportParams struct {
	Threads []int   `json:"threads"`
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Reps    int     `json:"reps"`
}

// Report is the machine-readable form of one experiment run, written by
// freeride-bench -json as BENCH_<exp>.json. It carries the structured
// metrics where the experiment provides them plus the printed table, so
// plotting pipelines and regression trackers can consume either.
type Report struct {
	Exp     string       `json:"exp"`
	Title   string       `json:"title"`
	Params  ReportParams `json:"params"`
	Columns []string     `json:"columns"`
	Rows    [][]string   `json:"rows"`
	Metrics []Metric     `json:"metrics,omitempty"`
	Notes   []string     `json:"notes,omitempty"`
	// PassLatency is the engine pass-latency quantile summary for the
	// passes this experiment ran (attached by freeride-bench from the
	// histogram's before/after states); absent when no passes ran.
	PassLatency *LatencyQuantiles `json:"pass_latency,omitempty"`
	Timestamp   string            `json:"timestamp"`
}

// NewReport assembles the report for a finished experiment run. The caller
// supplies the wall-clock stamp so report generation stays deterministic
// under test.
func NewReport(tbl *Table, p Params, now time.Time) *Report {
	return &Report{
		Exp:   tbl.ID,
		Title: tbl.Title,
		Params: ReportParams{
			Threads: p.Threads, Scale: p.Scale, Seed: p.Seed, Reps: p.Reps,
		},
		Columns:   tbl.Columns,
		Rows:      tbl.Rows,
		Metrics:   tbl.Metrics,
		Notes:     tbl.Notes,
		Timestamp: now.UTC().Format(time.RFC3339),
	}
}

// WriteJSON renders the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LatencyQuantiles summarizes an interval of the engine's pass-latency
// histogram (freeride_pass_duration_seconds): how many passes ran and the
// log-bucket p50/p90/p99 upper bounds in nanoseconds. Bucket bounds are
// powers of two, so each quantile is conservative within a factor of two —
// stable enough for regression tracking across machines.
type LatencyQuantiles struct {
	Count int64 `json:"count"`
	P50ns int64 `json:"p50_ns"`
	P90ns int64 `json:"p90_ns"`
	P99ns int64 `json:"p99_ns"`
}
