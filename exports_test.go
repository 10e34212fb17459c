package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"sync"
	"testing"
)

// testOnlyExports names the exported identifiers of internal/ that no
// binary reaches but that stay exported on purpose, each with its
// reason; TestNoTestOnlyExports takes them as roots. Keys are
// "pkgpath.Name" or "pkgpath.Type.Method". The list only shrinks: new
// code that only tests call goes beside those tests, and an entry whose
// identifier the other roots reach, or that disappears, is reported
// stale so that it is dropped.
var testOnlyExports = map[string]string{
	// The perf gate's harness runs from internal/perf's tests by design
	// (go test ./internal/perf -benchjson / -perfdiff).
	"repro/internal/perf.Collect":          "measures the suite for -benchjson and TestPerfDiff",
	"repro/internal/perf.Compare":          "the gate TestPerfDiff applies",
	"repro/internal/perf.ReadReport":       "loads the committed BENCH_sim.json for TestPerfDiff",
	"repro/internal/perf.Report.WriteFile": "writes BENCH_sim.json for -benchjson",
	"repro/internal/perf.Unbaselined":      "the targets TestPerfDiff warns have no baseline row",

	// Helpers the tests of several packages share.
	"repro/internal/gpu.SmemOracle.Findings":      "how the tests of gpu, kernels, sasscheck and cmd/sasslint read an attached shared-memory oracle",
	"repro/internal/gpu.SmemOracle.Records":       "the oracle's access log, read by the tests of gpu and kernels",
	"repro/internal/sass.EncodeAll":               "encodes instruction lists in the tests of sass, kernels, turingas and sasscheck",
	"repro/internal/tensor.Tensor.ToFilterLayout": "relayouts filters in the tests of tensor, conv and cudart",
	"repro/internal/tune.StoreKey":                "derives store keys in the tests of tune and serve; the tuner itself calls storeKey",
}

// TestNoTestOnlyExports fails on every package-level func, method, type,
// var and const of internal/, exported or not, that no binary reaches.
// It walks the reference graph of this module and of the benchmark
// module (../benchmark, which builds against the serving API) from
// their roots: the main functions of cmd/ and examples/, every non-test
// declaration of benchmark/, init functions, blank var initializers and
// the testOnlyExports entries. reach_test.go holds the graph and its
// rules; this test loads the packages.
func TestNoTestOnlyExports(t *testing.T) {
	fset, pkgs := loadModule(t)
	dead, keyErrs := deadCode(fset, pkgs, roots{
		mains: under("repro/cmd", "repro/examples"),
		whole: under("repro/benchmark"),
		keys:  testOnlyExports,
	}, under("repro/internal"))
	for _, e := range keyErrs {
		t.Errorf("testOnlyExports entry %s: drop the entry", e)
	}
	for _, obj := range dead {
		t.Errorf("%s: %s %s is reached by no binary: delete it, or move it into the _test.go file of its callers",
			fset.Position(obj.Pos()), kindOf(obj), objKey(obj))
	}
}

// under returns a test for import paths at or below any of dirs.
func under(dirs ...string) func(path string) bool {
	return func(path string) bool {
		for _, d := range dirs {
			if path == d || strings.HasPrefix(path, d+"/") {
				return true
			}
		}
		return false
	}
}

// loadModule type-checks the non-test files of this module and of the
// benchmark module, each package once so that all of them share one set
// of objects. Everything else comes from the gc export data that
// `go list -export` names.
func loadModule(t *testing.T) (*token.FileSet, []*srcPkg) {
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
	}
	dirs := []string{".", "benchmark"}
	outs := make([][]byte, len(dirs))
	errs := make([]error, len(dirs))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		wg.Add(1)
		go func(i int, dir string) {
			defer wg.Done()
			cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
			cmd.Dir = dir
			outs[i], errs[i] = cmd.Output()
		}(i, dir)
	}
	wg.Wait()
	fset := token.NewFileSet()
	export := map[string]string{}
	l := newSrcImporter(fset, importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := export[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	}))
	for i, dir := range dirs {
		if errs[i] != nil {
			var stderr []byte
			if ee, ok := errs[i].(*exec.ExitError); ok {
				stderr = ee.Stderr
			}
			t.Fatalf("go list in %s: %v\n%s", dir, errs[i], stderr)
		}
		for dec := json.NewDecoder(bytes.NewReader(outs[i])); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatalf("go list in %s: %v", dir, err)
			}
			if p.ImportPath != "repro" && !strings.HasPrefix(p.ImportPath, "repro/") {
				export[p.ImportPath] = p.Export
				continue
			}
			var names []string
			for _, name := range p.GoFiles {
				names = append(names, filepath.Join(p.Dir, name))
			}
			l.files[p.ImportPath] = names
		}
	}
	pkgs, err := l.checkAll()
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// srcImporter type-checks the packages it has files for from source,
// each once, and imports every other package through gc.
type srcImporter struct {
	fset  *token.FileSet
	gc    types.Importer
	files map[string][]string // import path → non-test Go files
	done  map[string]*srcPkg
}

func newSrcImporter(fset *token.FileSet, gc types.Importer) *srcImporter {
	return &srcImporter{fset: fset, gc: gc, files: map[string][]string{}, done: map[string]*srcPkg{}}
}

// checkAll type-checks every package l has files for.
func (l *srcImporter) checkAll() ([]*srcPkg, error) {
	paths := make([]string, 0, len(l.files))
	for path := range l.files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	pkgs := make([]*srcPkg, 0, len(paths))
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, l.done[path])
	}
	return pkgs, nil
}

func (l *srcImporter) Import(path string) (*types.Package, error) {
	names, ok := l.files[path]
	if !ok {
		return l.gc.Import(path)
	}
	if p := l.done[path]; p != nil {
		return p.pkg, nil
	}
	p := &srcPkg{info: newInfo()}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var err error
	if p.pkg, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	l.done[path] = p
	return p.pkg, nil
}
