package chapelfreeride_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachKeep names every top-level declaration that no root reaches but that
// stays, each with the reason it stays. A key is the declaration's import
// path inside the module ("chapelfreeride" for the root package) and its
// name; a method adds its receiver type: "internal/robj.Object.Reset".
var reachKeep = map[string]string{
	// The paper's Chapel side that no command runs.
	"internal/apps.KMeansChapelNative": "Fig 3: k-means as a user-defined ReduceScanOp class under Chapel's Reduce; TestKMeansAllVersionsAgree runs it",
	"internal/chapel.NewMaxOp":         "§IV-B: the built-in max and min reductions (its example is `min reduce A+B`); TestMinMaxReduce, TestReduceOverZipExpr",
	"internal/chapel.Zip":              "§IV-B: reductions over expressions over arrays (A+B); TestReduceOverZipExpr",
	"internal/chapel.RangeExpr":        "§IV-B: reductions over ranges; TestRangeExpr",
	"internal/chapel.MapOver":          "§IV-B: reductions over loop expressions; TestMapExpr",
	"internal/core.LinearizeExpr":      "§IV-B: Algorithm 2 over an expression instead of a stored array; TestLinearizeExpr",
	"internal/core.Meta.BaseIndex":     "§IV-C/§V: opt-1's start point of the inner run, hoisted out of computeIndex; the meta tests pin it",
	"internal/core.Buffer.Float64s":    "Fig 8: linear_data viewed as reals; the linearization tests compare LinearizeToWords with it",
	"internal/core.Vec.At":             "kernel API: one component of the element; TestHotPathInlines pins it inlinable",
	"internal/core.StateVec.At":        "kernel API: one component of a hot variable; TestHotPathInlines pins it inlinable",

	// The fused split handle's shadow of a per-element call.
	"internal/freeride.BlockArgs.AccumulateRange": "kernel API: keeps a fused kernel's range in its worker-local buffer, one synchronization per split; no block kernel calls it, TestAccumulateRangeBlockArgsStaysLocal pins it",

	// Sequential references the all-versions tests compare against, and
	// the runners that execute a class no command runs.
	"internal/apps.PCASeq":         "sequential reference of TestPCAAllVersionsAgree and TestPropertyPCAMatchesSeq",
	"internal/apps.EMSeq":          "sequential reference of TestEMAllVersionsAgree",
	"internal/apps.SpMVSeq":        "sequential densified reference of TestPropertySpMVMatchesDensified",
	"internal/apps.EMTranslated":   "runs EMClass at generated/opt-1/opt-2 for TestEMAllVersionsAgree",
	"internal/apps.SpMVTranslated": "runs SpMVClass over boxed triples at every level for TestPropertySpMVMatchesDensified",
	"internal/chapel.ReduceSeq":    "sequential reference of TestPropertyReduceMatchesSequential and TestUserDefinedReduction",

	// Fault injection.
	"internal/dataset.NewFaultSource":       "fault injection: the read-error and cancellation tests of dataset and freeride",
	"internal/dataset.NewRetrySource":       "fault injection: the retry tests of dataset and freeride",
	"internal/dataset.IsPermanent":          "fault injection: tells a permanent injected fault from a transient one",
	"internal/dataset.FaultSource.Injected": "fault injection: TestFaultSourceTransientHeals counts the faults it injected",

	// Test seams.
	"internal/serve.Server.RegisterKernel": "test seam: seven serve tests (TestCustomKernelOverHTTP, TestTenantQuotaFairness, ...) register custom kernels",
	"internal/dataset.Matrix.Equal":        "test seam: NaN-aware matrix equality for the bit-identity tests",
	"internal/chapel.DeepEqual":            "test seam: the linearize/delinearize round-trip tests compare boxed values with it",
	"internal/chapel.IntArray":             "test seam: builds int arrays for the chapel and core tests",
	"internal/chapel.NewString":            "test seam: builds string values for core's linearization tests",
	"internal/chapel.NewEnum":              "test seam: builds enum values for core's linearization tests",
	"internal/chapel.Record.SetField":      "test seam: fills records for core's linearization and size tests",
	"internal/core.Buffer.WriteInt":        "test seam: TestDelinearizeClampsBadEnumOrdinal corrupts a buffer with it",
	"internal/core.Buffer.WriteReal":       "test seam: WriteInt's real counterpart; TestLinearizeWriteAccessors",
	"internal/core.WordsBack":              "test seam: TestPipelineChapelSourceToCluster writes linearized words back into the boxed data",
	"internal/freeride.Stats.Total":        "test seam: the timing tests check that the phases sum to the pass",
	"internal/mapreduce.Stats.Total":       "test seam: the Map-Reduce baseline's phase sum, as freeride.Stats.Total; TestStatsTotal",
	"internal/obs.Histogram.Quantile":      "test seam: the histogram and job-metrics tests read quantiles",
	"internal/obs.Registry.FindHistogram":  "test seam: the freeride timing and job-metrics tests find histograms by name",
}

// TestEveryDeclarationReached is the module's reachability oracle. It
// type-checks every package of the module and of benchmark/ from source and
// walks what the roots reference: the main of every command and of the
// benchmark, every init func and `_` var, and the root package's Example
// functions (the checked quickstart). A declaration no root reaches must be
// deleted or named in reachKeep with a reason; what a kept declaration
// references is kept with it. A reachKeep entry that a root reaches, that
// another entry already keeps, or that names nothing fails too, so the
// table shrinks with the code. The printout
// gives each package's non-test lines, exported identifiers and unreached
// declarations.
func TestEveryDeclarationReached(t *testing.T) {
	m := loadModule(t, "benchmark", ".", "chapelfreeride/...")
	unreached, keptBy := m.walk(reachKeep)

	byPkg := map[string][]*reachDecl{}
	for _, d := range unreached {
		byPkg[d.pkg.rel] = append(byPkg[d.pkg.rel], d)
	}
	pkgs := append([]*reachPkg(nil), m.pkgs...)
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].rel < pkgs[j].rel })
	var total, exported int
	for _, p := range pkgs {
		if p.rel != "benchmark" {
			total += p.lines
			exported += p.exported
		}
		deadLines := 0
		for _, d := range byPkg[p.rel] {
			deadLines += d.lines
		}
		t.Logf("%-24s %6d lines %4d exported %3d unreached (%d lines)",
			p.rel, p.lines, p.exported, len(byPkg[p.rel]), deadLines)
		for _, d := range byPkg[p.rel] {
			reason, kept := reachKeep[d.key]
			switch {
			case kept:
			case keptBy[d] != "":
				reason = "kept with " + keptBy[d]
			default:
				reason = "NOT KEPT"
				t.Errorf("%s (%s) is reached from no main, init, `_` var or Example: delete it or give reachKeep a reason",
					d.key, m.fset.Position(d.node.Pos()))
			}
			t.Logf("    %-46s %4d lines  %s", d.key, d.lines, reason)
		}
	}
	t.Logf("%-24s %6d lines %4d exported (non-test, outside benchmark/)", "total", total, exported)

	dead := map[string]bool{}
	for _, d := range unreached {
		dead[d.key] = true
	}
	for key, reason := range reachKeep {
		switch {
		case reason == "":
			t.Errorf("reachKeep[%q] gives no reason", key)
		case m.byKey[key] == nil:
			t.Errorf("reachKeep names %s, which no longer exists", key)
		case !dead[key]:
			t.Errorf("reachKeep names %s, which a root now reaches", key)
		case keptBy[m.byKey[key]] != key:
			t.Errorf("reachKeep names %s, which %s already keeps", key, keptBy[m.byKey[key]])
		}
	}
}

// TestReachOracleFixture keeps the oracle from passing vacuously:
// testdata/reach holds one unreached func, one method reached only through an
// interface call and one counter var that only the unreached func touches,
// and the oracle must report exactly the func and the counter.
func TestReachOracleFixture(t *testing.T) {
	m := loadModule(t, ".", "./testdata/reach")
	unreached, _ := m.walk(nil)
	var got []string
	for _, d := range unreached {
		got = append(got, d.key)
	}
	want := []string{"testdata/reach.deadHits", "testdata/reach.unused"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

// listedPkg is the part of `go list -json` the oracle reads.
type listedPkg struct {
	ImportPath     string
	Dir            string
	Standard       bool
	GoFiles        []string
	IgnoredGoFiles []string
	XTestGoFiles   []string
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	rel      string // import path inside the module
	files    []*ast.File
	info     *types.Info
	lines    int // non-test lines
	exported int // exported top-level identifiers and methods
	example  bool
}

// reachDecl is one top-level declaration: a func, method, type, var or const.
type reachDecl struct {
	key   string
	obj   types.Object
	node  ast.Node // what the walk visits once the declaration is reached
	pkg   *reachPkg
	lines int
}

type reachModule struct {
	fset  *token.FileSet
	pkgs  []*reachPkg // in dependency order, xtest packages excluded
	all   []*reachPkg
	decls map[types.Object]*reachDecl
	byKey map[string]*reachDecl
	roots []reachRoot
	// methods maps a named type's declaration to its methods' declarations.
	methods map[types.Object][]*reachDecl
	// ifaceNames holds the method names of every interface type in sight;
	// a method of a reached type with one of these names may be called
	// dynamically and counts as reached.
	ifaceNames map[string]bool
}

const modulePath = "chapelfreeride"

// loadModule lists the patterns with their dependencies from dir and
// type-checks every non-standard package from source, the root package's
// external tests included; the standard library comes from export data.
func loadModule(t *testing.T, dir string, patterns ...string) *reachModule {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not available")
	}
	cmd := exec.Command(goTool, append([]string{"list", "-deps", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	m := &reachModule{
		fset:       token.NewFileSet(),
		decls:      map[types.Object]*reachDecl{},
		byKey:      map[string]*reachDecl{},
		methods:    map[types.Object][]*reachDecl{},
		ifaceNames: map[string]bool{},
	}
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	check := func(lp listedPkg, path string, names []string, example bool) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
		if rel == "" {
			rel = modulePath
		}
		p := &reachPkg{rel: rel, example: example}
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			p.files = append(p.files, f)
		}
		if !example {
			// Files other platforms build count as lines but are not checked.
			for _, name := range append(lp.GoFiles, lp.IgnoredGoFiles...) {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				src, err := os.ReadFile(filepath.Join(lp.Dir, name))
				if err != nil {
					t.Fatal(err)
				}
				p.lines += bytes.Count(src, []byte("\n"))
			}
		}
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, m.fset, p.files, p.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		checked[path] = tp
		m.all = append(m.all, p)
		if !example {
			m.pkgs = append(m.pkgs, p)
			m.index(p)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var rootPkg *listedPkg
	for {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if lp.Standard {
			continue
		}
		check(lp, lp.ImportPath, lp.GoFiles, false)
		if lp.ImportPath == modulePath && len(lp.XTestGoFiles) > 0 {
			rootPkg = &lp
		}
	}
	if rootPkg != nil {
		check(*rootPkg, modulePath+"_test", rootPkg.XTestGoFiles, true)
	}
	m.collectIfaceNames(checked)
	m.collectRoots()
	return m
}

// reachRoot is a starting point of the walk with the package facts it needs.
type reachRoot struct {
	node ast.Node
	info *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// index records p's top-level declarations and counts its exported names.
func (m *reachModule) index(p *reachPkg) {
	add := func(obj types.Object, node, span ast.Node, doc *ast.CommentGroup) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		start := span.Pos()
		if doc != nil {
			start = doc.Pos()
		}
		d := &reachDecl{
			key:  p.rel + "." + obj.Name(),
			obj:  obj,
			node: node,
			pkg:  p,
			lines: m.fset.Position(span.End()).Line -
				m.fset.Position(start).Line + 1,
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				tn := recvNamed(recv.Type()).Obj()
				d.key = p.rel + "." + tn.Name() + "." + obj.Name()
				m.methods[tn] = append(m.methods[tn], d)
			}
		}
		m.decls[obj] = d
		m.byKey[d.key] = d
		if obj.Exported() {
			p.exported++
		}
	}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil && decl.Name.Name == "init" {
					continue
				}
				add(p.info.Defs[decl.Name], decl, decl, decl.Doc)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var span ast.Node = spec
					doc := decl.Doc
					if len(decl.Specs) > 1 || decl.Lparen.IsValid() {
						doc = nil
					}
					if doc != nil || !decl.Lparen.IsValid() {
						span = decl
					}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						if doc == nil {
							doc = spec.Doc
						}
						add(p.info.Defs[spec.Name], spec, span, doc)
					case *ast.ValueSpec:
						if doc == nil {
							doc = spec.Doc
						}
						for _, name := range spec.Names {
							add(p.info.Defs[name], spec, span, doc)
						}
					}
				}
			}
		}
	}
}

// recvNamed is the named type a method's receiver (T or *T) names.
func recvNamed(t types.Type) *types.Named {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return types.Unalias(t).(*types.Named).Origin()
}

// collectIfaceNames gathers the method names of every interface type the
// module's code mentions and of every exported interface in the packages it
// imports: fmt calls String, net/http calls ServeHTTP, sort calls Len.
func (m *reachModule) collectIfaceNames(checked map[string]*types.Package) {
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m.ifaceNames[it.Method(i).Name()] = true
			}
		}
	}
	for _, p := range m.all {
		for _, tv := range p.info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
	}
	seen := map[*types.Package]bool{}
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range pkg.Imports() {
			visit(dep)
		}
	}
	for _, pkg := range checked {
		visit(pkg)
	}
}

// collectRoots finds the walk's starting points: every command's main, every
// init func, every `_` var and the root package's Example functions.
func (m *reachModule) collectRoots() {
	for _, p := range m.all {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						continue
					}
					name := decl.Name.Name
					switch {
					case name == "init",
						name == "main" && f.Name.Name == "main",
						p.example && strings.HasPrefix(name, "Example"):
						m.roots = append(m.roots, reachRoot{decl, p.info})
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, name := range vs.Names {
								if name.Name == "_" {
									m.roots = append(m.roots, reachRoot{vs, p.info})
								}
							}
						}
					}
				}
			}
		}
	}
}

// walk visits everything the roots reference and returns, sorted by key,
// the declarations it never visits. A declaration is reached when reached
// code names it; a method is reached when its receiver type is reached and
// either reached code selects it or some interface has a method of its name.
// keptBy maps each unreached declaration that a keep entry references,
// directly or not, to that entry's key.
func (m *reachModule) walk(keep map[string]string) (unreached []*reachDecl, keptBy map[*reachDecl]string) {
	reached := map[*reachDecl]bool{}
	selected := map[*reachDecl]bool{}
	type item struct {
		node ast.Node
		info *types.Info
	}
	var queue []item
	var reach func(d *reachDecl)
	reach = func(d *reachDecl) {
		if reached[d] {
			return
		}
		reached[d] = true
		queue = append(queue, item{d.node, d.pkg.info})
		if tn, ok := d.obj.(*types.TypeName); ok {
			for _, md := range m.methods[tn] {
				if selected[md] || m.ifaceNames[md.obj.Name()] {
					reach(md)
				}
			}
		}
	}
	use := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		d := m.decls[obj]
		if d == nil {
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				selected[d] = true
				if td := m.decls[recvNamed(recv.Type()).Obj()]; td == nil || !reached[td] {
					return
				}
			}
		}
		reach(d)
	}
	drain := func() {
		for len(queue) > 0 {
			it := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(it.node, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := it.info.Uses[id]; obj != nil {
						use(obj)
					}
				}
				return true
			})
		}
	}
	for _, root := range m.roots {
		if fd, ok := root.node.(*ast.FuncDecl); ok {
			if d := m.decls[root.info.Defs[fd.Name]]; d != nil {
				reached[d] = true
			}
		}
		queue = append(queue, item{root.node, root.info})
	}
	drain()
	fromRoots := map[*reachDecl]bool{}
	for d := range reached {
		fromRoots[d] = true
	}
	keptBy = map[*reachDecl]string{}
	keys := make([]string, 0, len(keep))
	for key := range keep {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if d := m.byKey[key]; d != nil && !fromRoots[d] {
			before := map[*reachDecl]bool{}
			for d := range reached {
				before[d] = true
			}
			reach(d)
			drain()
			for d := range reached {
				if !before[d] {
					keptBy[d] = key
				}
			}
		}
	}
	for _, d := range m.byKey {
		if !fromRoots[d] {
			unreached = append(unreached, d)
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })
	return unreached, keptBy
}
