// Package analyze is the translate-time cost and contention analysis for
// the Chapel→FREERIDE pipeline. It runs alongside the FRV verifier over the
// same plan IR (verify.Plan): where the verifier proves the lowered loop
// nest *safe*, this pass predicts how it will *perform* — per-split
// write-set footprints from the affine closed form off(i,k)=U0·i+Off0+U1·k,
// and exact touched-cell histograms and conflict-degree distributions
// folded from inspector-materialized index tables — and condenses them
// into a PlanProfile a deterministic advisor (advise.go) turns into a
// (strategy, scheduler, chunk) pick before the first row is read.
// Statically-provable pathologies surface as FRV050+ diagnostics.
//
// The package depends only on verify (the neutral IR), robj/sched (the
// advised enum types), and freeride (to apply advice onto a Config); core
// and serve depend on analyze, never the reverse.
package analyze

import (
	"fmt"

	"chapelfreeride/internal/verify"
)

// Defaults for Options fields left zero.
const (
	// DefaultCacheBudgetBytes is the per-worker write-set budget before
	// FRV051 fires: 1 MiB, roughly half a per-core L2, leaving headroom
	// for the data stream the worker is scanning at the same time.
	DefaultCacheBudgetBytes = 1 << 20
	// DefaultSplitRows mirrors freeride.Config.SplitRows: the chunk the
	// advisor falls back to for an empty domain.
	DefaultSplitRows = 4096
	// skewMinCells is the smallest object FRV052 reports degenerate skew
	// on: below it the touched set cannot be much smaller than the object.
	skewMinCells = 4096
	// wordBytes is the linearized word size (float64).
	wordBytes = 8
)

// Options tunes the analysis. The zero value picks the defaults above.
type Options struct {
	// CacheBudgetBytes is the per-worker write-set budget; a reduction
	// object larger than this draws FRV051 and steers the advisor away
	// from replication-style dense mirrors.
	CacheBudgetBytes int64
}

func (o Options) withDefaults() Options {
	if o.CacheBudgetBytes == 0 {
		o.CacheBudgetBytes = DefaultCacheBudgetBytes
	}
	return o
}

// Overlap classifies how the footprints of two different splits relate.
type Overlap string

const (
	// OverlapDisjoint: distinct splits touch provably disjoint words.
	OverlapDisjoint Overlap = "disjoint"
	// OverlapReadShared: every split reads the same words; no writes.
	OverlapReadShared Overlap = "read-shared"
	// OverlapWriteConflicting: distinct splits can write the same cells.
	OverlapWriteConflicting Overlap = "write-conflicting"
)

// ReadFootprint is the per-access read-side summary: how many words one
// domain row touches and whether two splits' read sets can overlap.
type ReadFootprint struct {
	// Name is the access name from the plan: "data", "hot[0]", "gather(in)".
	Name string `json:"name"`
	// Overlap classifies the cross-split relation of this access's
	// footprints. For affine accesses it is proven from the closed form:
	// U0 ≥ InnerLen·U1 makes row footprints (and hence split footprints)
	// disjoint; hot-variable accesses are read by every split in full.
	Overlap Overlap `json:"overlap"`
	// CellsPerRow is the element count one domain row touches (InnerLen
	// for affine accesses, 1 per table entry for gathers).
	CellsPerRow int `json:"cells_per_row"`
	// SpanWordsPerRow is the word span of one row's footprint
	// (InnerLen·U1); equals CellsPerRow when the inner stride is 1.
	SpanWordsPerRow int `json:"span_words_per_row"`
	// FootprintBytes is the full-domain touched-byte count (distinct
	// words × 8). Zero for boxed accesses with no word view.
	FootprintBytes int64 `json:"footprint_bytes"`
	// Boxed marks accesses with no linear word view (generated/opt-1 hot
	// variables); their footprint is not statically sized.
	Boxed bool `json:"boxed,omitempty"`
}

// WriteSet is the reduction-object write-side summary. For affine plans the
// kernel's target cells are data-dependent, so only the shape-level facts
// are exact (cells, bytes) and the alias statistics are lower bounds from
// the domain size; for inspector plans the scatter table is materialized
// and every statistic is exact.
type WriteSet struct {
	// Overlap classifies cross-split object writes. Write-conflicting for
	// every plan with more than one cell-targeting row — FREERIDE's
	// sharing strategies exist exactly because this set is not disjoint.
	Overlap Overlap `json:"overlap"`
	// Groups, Elems, Cells, and Bytes size the object (Groups×Elems cells
	// × 8 bytes).
	Groups int   `json:"groups"`
	Elems  int   `json:"elems"`
	Cells  int   `json:"cells"`
	Bytes  int64 `json:"bytes"`
	// TouchedCells is the number of cells receiving at least one write:
	// exact from the scatter table for inspector plans; Cells for affine
	// plans (any cell is statically reachable).
	TouchedCells int `json:"touched_cells"`
	// MaxAliases is the write count of the hottest cell (inspector plans
	// only; 0 means not statically known).
	MaxAliases int `json:"max_aliases,omitempty"`
	// MeanAliases is writes per touched cell (domain / touched).
	MeanAliases float64 `json:"mean_aliases"`
	// HotCellShare is the fraction of all writes landing on the hottest
	// cell (inspector plans only).
	HotCellShare float64 `json:"hot_cell_share,omitempty"`
	// Skew is MaxAliases/MeanAliases — 1.0 for a perfectly uniform
	// scatter, large when a few cells absorb most writes.
	Skew float64 `json:"skew,omitempty"`
	// Sorted reports that the scatter table's targets are nondecreasing
	// over the domain (CSR row order), so one cell's writes are contiguous
	// in the iteration domain and cross-split conflicts cluster at split
	// boundaries.
	Sorted bool `json:"sorted,omitempty"`
}

// PlanProfile is the structured result of the analysis: everything the
// advisor (and -analyze-json tooling) needs, derived statically from the
// plan IR at translate time.
type PlanProfile struct {
	// Class, Opt, OptName identify the analyzed plan.
	Class   string `json:"class"`
	Opt     int    `json:"opt"`
	OptName string `json:"opt_name"`
	// Kind is "affine" (closed-form index map) or "inspector"
	// (materialized index tables).
	Kind string `json:"kind"`
	// Domain is the executor iteration-domain length: rows for affine
	// plans, nonzeros for inspector plans.
	Domain int `json:"domain"`
	// Reads lists the read-side access footprints.
	Reads []ReadFootprint `json:"reads"`
	// Writes summarizes the reduction-object write set.
	Writes WriteSet `json:"writes"`
	// Diags carries the FRV050+ advisory diagnostics the analysis
	// produced (never errors — pathologies inform the advisor, they do
	// not reject the plan).
	Diags verify.Diagnostics `json:"-"`
}

// Profile analyzes one verified plan and returns its profile. The plan is
// assumed to have passed verify.CheckPlan with no errors; on a plan that
// has not (nil Data, empty tables) the profile degrades to the facts that
// still hold rather than panicking.
func Profile(p *verify.Plan, opts Options) *PlanProfile {
	opts = opts.withDefaults()
	pr := &PlanProfile{
		Class:   p.Class,
		Opt:     p.Opt,
		OptName: p.OptName,
		Kind:    "affine",
	}
	if len(p.Tables) > 0 {
		pr.Kind = "inspector"
	}

	// Read side: the dataset stream and every hot access.
	if p.Data != nil {
		pr.Domain = p.Data.Elems
		pr.Reads = append(pr.Reads, readFootprint(*p.Data, true))
	}
	for _, h := range p.Hot {
		pr.Reads = append(pr.Reads, readFootprint(h, false))
	}

	// Write side: the reduction object.
	cells := p.Object.Cells()
	pr.Writes = WriteSet{
		Overlap:      OverlapWriteConflicting,
		Groups:       p.Object.Groups,
		Elems:        p.Object.Elems,
		Cells:        cells,
		Bytes:        int64(cells) * wordBytes,
		TouchedCells: cells,
	}

	if pr.Kind == "inspector" {
		pr.analyzeTables(p)
	} else if cells > 0 && pr.Domain > 0 {
		// Affine plans select target cells per row at run time; the exact
		// histogram is data-dependent. The domain still bounds the mean:
		// a per-row kernel issues ≥1 write per row, so the mean aliases
		// per touched cell are at least Domain/Cells.
		pr.Writes.MeanAliases = float64(pr.Domain) / float64(cells)
	}

	pr.diagnose(opts)
	return pr
}

// readFootprint summarizes one access. isData marks the split-partitioned
// dataset stream; hot accesses are read in full by every split.
func readFootprint(a verify.Access, isData bool) ReadFootprint {
	f := ReadFootprint{Name: a.Name, Boxed: a.Boxed}
	if a.Boxed {
		f.Overlap = OverlapReadShared
		return f
	}
	f.CellsPerRow = a.InnerLen
	f.SpanWordsPerRow = a.InnerLen * a.U1
	f.FootprintBytes = int64(a.Elems) * int64(a.InnerLen) * wordBytes
	if isData && a.U0 >= a.InnerLen*a.U1 {
		// The FRV012 injectivity condition: row footprints are disjoint,
		// so splits over disjoint row ranges touch disjoint words.
		f.Overlap = OverlapDisjoint
	} else {
		f.Overlap = OverlapReadShared
	}
	return f
}

// analyzeTables folds the inspector-materialized tables into exact write
// and gather statistics: a touched-cell histogram over the scatter row
// pointers ("rowPtr") and a distinct-offset count over the gather ("in")
// table.
func (pr *PlanProfile) analyzeTables(p *verify.Plan) {
	for _, t := range p.Tables {
		switch t.Name {
		case "rowPtr":
			pr.Domain = t.Domain
			pr.foldScatter(t)
		case "in":
			pr.foldGather(t)
		}
	}
}

// foldScatter builds the exact touched-cell histogram and conflict-degree
// distribution from the scatter row pointers: row r takes
// rowPtr[r+1]-rowPtr[r] writes, and the writes arrive in row order.
func (pr *PlanProfile) foldScatter(t verify.TableAccess) {
	if t.Bound <= 0 || t.Domain == 0 || len(t.Entries) != t.Bound+1 {
		return
	}
	touched, max := 0, int32(0)
	for r := 0; r < t.Bound; r++ {
		c := t.Entries[r+1] - t.Entries[r]
		if c > 0 {
			touched++ // a decreasing pointer is the verifier's FRV014; skip it
		}
		if c > max {
			max = c
		}
	}
	pr.Writes.TouchedCells = touched
	pr.Writes.MaxAliases = int(max)
	pr.Writes.Sorted = true
	if touched > 0 {
		pr.Writes.MeanAliases = float64(t.Domain) / float64(touched)
		pr.Writes.HotCellShare = float64(max) / float64(t.Domain)
		pr.Writes.Skew = float64(max) / pr.Writes.MeanAliases
	}
}

// foldGather summarizes the gather table as a read footprint: distinct hot
// offsets × 8 bytes, read-shared across splits (any split may gather any
// offset).
func (pr *PlanProfile) foldGather(t verify.TableAccess) {
	if t.Bound <= 0 {
		return
	}
	seen := make([]bool, t.Bound)
	distinct := 0
	for _, e := range t.Entries {
		if e >= 0 && int(e) < t.Bound && !seen[e] {
			seen[e] = true
			distinct++
		}
	}
	pr.Reads = append(pr.Reads, ReadFootprint{
		Name:            "gather(in)",
		Overlap:         OverlapReadShared,
		CellsPerRow:     1,
		SpanWordsPerRow: 1,
		FootprintBytes:  int64(distinct) * wordBytes,
	})
}

// diagnose raises the FRV050+ advisory diagnostics on statically-provable
// pathologies.
func (pr *PlanProfile) diagnose(opts Options) {
	pos := pr.Class
	if pos == "" {
		pos = "class"
	}
	if pr.Writes.Cells == 1 && pr.Domain > 1 {
		pr.Diags = append(pr.Diags, verify.Diagnostic{
			Pos: pos, Severity: verify.SeverityWarning, Code: verify.CodeWriteHotspot,
			Msg: fmt.Sprintf("all %d domain rows write the single object cell; per-cell locks and CAS serialize on it — full replication is the only contention-free strategy", pr.Domain),
		})
	} else if pr.Writes.HotCellShare >= 0.5 && pr.Domain > 16 {
		pr.Diags = append(pr.Diags, verify.Diagnostic{
			Pos: pos, Severity: verify.SeverityWarning, Code: verify.CodeWriteHotspot,
			Msg: fmt.Sprintf("the hottest object cell absorbs %.0f%% of all %d scatter writes (%d aliases); per-cell synchronization serializes on it — prefer full replication", 100*pr.Writes.HotCellShare, pr.Domain, pr.Writes.MaxAliases),
		})
	}
	if pr.Writes.Bytes > opts.CacheBudgetBytes {
		pr.Diags = append(pr.Diags, verify.Diagnostic{
			Pos: pos, Severity: verify.SeverityWarning, Code: verify.CodeFootprintBudget,
			Msg: fmt.Sprintf("per-worker write set is %d bytes (%d cells), over the %d-byte cache budget; replicated mirrors will thrash and every dense flush sweeps the full object", pr.Writes.Bytes, pr.Writes.Cells, opts.CacheBudgetBytes),
		})
	}
	if pr.Kind == "inspector" && pr.Writes.Skew >= 8 && pr.Writes.Cells >= skewMinCells {
		pr.Diags = append(pr.Diags, verify.Diagnostic{
			Pos: pos, Severity: verify.SeverityInfo, Code: verify.CodeDegenerateSkew,
			Msg: fmt.Sprintf("scatter table shows degenerate skew (max %d vs mean %.1f writes/cell over %d touched of %d cells)", pr.Writes.MaxAliases, pr.Writes.MeanAliases, pr.Writes.TouchedCells, pr.Writes.Cells),
		})
	}
}

// DenseProfile builds the affine profile for a dense rows×cols dataset
// reduced into a groups×elems object — the admission-time path (serve)
// where only the shapes are known and the full core lowering has not run.
// The synthetic access is the standard contiguous row-major layout the
// dense translations produce (U0=cols, Off0=0, U1=1).
func DenseProfile(class string, rows, cols, groups, elems int, opts Options) *PlanProfile {
	if rows < 0 {
		rows = 0
	}
	if cols < 1 {
		cols = 1
	}
	p := &verify.Plan{
		Class:     class,
		Opt:       2,
		OptName:   "opt-2",
		HasKernel: true,
		Object:    verify.Shape{Groups: groups, Elems: elems},
		Data: &verify.Access{
			Name: "data", Elems: rows, InnerLen: cols,
			U0: cols, Off0: 0, U1: 1,
			WordLen: rows * cols, Levels: 2, AllReal: true,
		},
	}
	return Profile(p, opts)
}

// SparseShapeProfile builds a coarse inspector-model profile from shape
// alone — nnz scatter writes into a cells-cell object — for admission-time
// advice when materializing the index tables would mean reading the whole
// dataset. Alias statistics assume a uniform scatter (skew 1); exact
// statistics come from Profile over a plan with materialized tables.
func SparseShapeProfile(class string, nnz, cells int, opts Options) *PlanProfile {
	opts = opts.withDefaults()
	pr := &PlanProfile{
		Class:   class,
		Opt:     3,
		OptName: "opt-3",
		Kind:    "inspector",
		Domain:  nnz,
	}
	if cells < 0 {
		cells = 0
	}
	touched := cells
	if nnz < touched {
		touched = nnz
	}
	pr.Writes = WriteSet{
		Overlap:      OverlapWriteConflicting,
		Groups:       cells,
		Elems:        1,
		Cells:        cells,
		Bytes:        int64(cells) * wordBytes,
		TouchedCells: touched,
	}
	if touched > 0 {
		pr.Writes.MeanAliases = float64(nnz) / float64(touched)
		pr.Writes.Skew = 1
	}
	pr.diagnose(opts)
	return pr
}
