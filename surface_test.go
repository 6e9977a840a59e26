package repro_test

import (
	"bytes"
	"encoding/json"
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

// surface_test.go keeps the exported API under internal/ at what the
// programs run. It type-checks the non-test files of both modules (this
// one with cmd/ and examples/, and perfbench/) and fails, naming each
// one, on every exported object or method under internal/ that no
// non-test file references. A method also counts as used when its
// receiver type satisfies an interface that holds it. Whatever else is
// kept on purpose is listed in surfaceKeep with its reason.

// surfaceKeep names the exported identifiers under internal/ that no
// non-test file references but that stay: test oracles, test seams,
// the backers of EXPERIMENTS.md's extension and ablation benchmarks,
// the writers the readers' round-trip tests use, and interface
// methods. Keys are the package path below internal/, then the
// receiver type for a method, then the name.
var surfaceKeep = map[string]string{
	// Test oracles: the reference paths fast code is pinned to.
	"cluster.EnumerateAll":                  "the serial frontier oracle and pareto's property tests enumerate the space with it",
	"cluster.PowerBudget.Fits":              "the serial frontier oracle filters configurations over the budget with it",
	"energyprop.Reference.CrossoverNumeric": "the numeric oracle for the closed-form SublinearCrossover",
	"pareto.Frontier":                       "the serial frontier oracle's scan, which FrontierSweep matches point for point",
	"queueing.ConformanceSpecs":             "the specs every kernel's conformance test runs",
	"queueing.MM1.ResponsePercentile":       "the M/M/1 closed form the M/D/1 tail is checked against",
	"queueing.MM1.WaitPercentile":           "the M/M/1 closed form the M/D/1 tail is checked against",
	"queueing.ServiceSampler":               "the discrete-event M/M/k simulation the Erlang-C kernel is checked against",
	"queueing.SimulateMMK":                  "the discrete-event M/M/k simulation the Erlang-C kernel is checked against",
	"stats.IntegrateFunc":                   "queueing's check of each kernel's density against its CDF integrates with it",
	"telemetry.Progress.Tick":               "the serial frontier oracle ticks progress once per configuration with it",

	// Test seam.
	"telemetry.Tracer.SetClock": "tests inject a fake clock through it",

	// The extension and ablation benchmarks EXPERIMENTS.md reports
	// (bench_extensions_test.go).
	"analysis.Suite.ValidateResponseModel":      "backs the response-model validation benchmark",
	"colocate.AffinityGain":                     "backs the co-location benchmark",
	"colocate.Pool.Best":                        "backs the co-location benchmark",
	"queueing.BatchMD1.AsMD1":                   "backs the batch-arrival benchmark",
	"queueing.BatchMD1.MeanResponse":            "backs the batch-arrival benchmark",
	"queueing.BatchMD1.ResponsePercentile":      "backs the batch-arrival benchmark",
	"queueing.NewBatchMD1FromUtilization":       "backs the batch-arrival benchmark",
	"simulator.RunWindow":                       "backs the simulated response-window benchmark",
	"simulator.WindowResult.ResponsePercentile": "backs the simulated response-window benchmark",

	// Format writers the readers' round-trip tests write with.
	"hardware.Catalog.WriteJSON":  "the catalog JSON reader's round-trip test writes with it",
	"replay.Trace.WriteCSV":       "the trace CSV reader's round-trip and fuzz tests write with it",
	"workload.Registry.WriteJSON": "the registry JSON reader's round-trip test writes with it",

	// A trace accessor the simulator's tests read.
	"powermeter.Trace.Duration": "the simulator's tests check each node trace's span against the run time with it",

	// Interface methods: every kernel implements them.
	"queueing.Kernel.ResponseCDF": "a Kernel method every kernel implements",
	"queueing.Kernel.Validate":    "a Kernel method every kernel implements",
	"queueing.Kernel.WaitCDF":     "a Kernel method every kernel implements",
}

// surfacePackage is the part of `go list -json` the scan reads.
type surfacePackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// surfaceList runs `go list -deps -export -json ./...` in dir and
// returns its packages in dependency order.
func surfaceList(t *testing.T, dir string) []surfacePackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []surfacePackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p surfacePackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func TestInternalSurfaceIsUsed(t *testing.T) {
	var pkgs []surfacePackage
	for _, dir := range []string{".", "perfbench"} {
		pkgs = append(pkgs, surfaceList(t, dir)...)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Standard && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, os.ErrNotExist
		}
		return os.Open(file)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		return std.Import(path)
	})

	// Type-check every non-test file of both modules from source, in
	// dependency order, and record what they reference.
	used := map[types.Object]bool{}
	var defined []*types.Package
	for _, p := range pkgs {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
		if strings.HasPrefix(p.ImportPath, "repro/internal/") {
			defined = append(defined, pkg)
		}
	}

	// The interfaces a method may satisfy: error, and every non-generic
	// interface any scanned package declares or imports.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	collect := func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, pkg := range checked {
		collect(pkg)
		for _, dep := range pkg.Imports() {
			collect(dep)
		}
	}
	satisfies := func(recv types.Type, method string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method && types.Implements(recv, it) {
					return true
				}
			}
		}
		return false
	}

	// Name each unreferenced object as surfaceKeep does.
	unused := map[string]bool{}
	for _, pkg := range defined {
		prefix := strings.TrimPrefix(pkg.Path(), "repro/internal/") + "."
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused[prefix+name] = true
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); m.Exported() && !used[m] {
						unused[prefix+name+"."+m.Name()] = true
					}
				}
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(types.NewPointer(named), m.Name()) {
					unused[prefix+name+"."+m.Name()] = true
				}
			}
		}
	}

	var names []string
	for key := range unused {
		if _, ok := surfaceKeep[key]; !ok {
			names = append(names, key)
		}
	}
	sort.Strings(names)
	for _, key := range names {
		t.Errorf("%s: exported under internal/, but no non-test file references it; delete it or add it to surfaceKeep with a reason", key)
	}
	var stale []string
	for key := range surfaceKeep {
		if !unused[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("surfaceKeep lists %s, which is gone or now referenced; drop its entry", key)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
