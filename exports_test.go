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
// reason; TestNoTestOnlyExports takes them as roots. It also names the
// test seams: exported fields that binaries read but only tests set.
// Keys are "pkgpath.Name", "pkgpath.Type.Method" or
// "pkgpath.Type.Field". The list only shrinks: new code that only tests
// call goes beside those tests, a value that only tests set is deleted
// or made a constant, and an entry whose identifier the other roots
// reach, whose field reached code writes, or that disappears, is
// reported stale so that it is dropped.
var testOnlyExports = map[string]string{
	// Helpers the tests of several packages share.
	"repro/internal/gpu.SmemOracle.Findings":      "how the tests of gpu, kernels, sasscheck and cmd/sasslint read an attached shared-memory oracle",
	"repro/internal/gpu.SmemOracle.Records":       "the oracle's access log, read by the tests of gpu and kernels",
	"repro/internal/sass.EncodeAll":               "encodes instruction lists in the tests of sass, kernels, turingas and sasscheck",
	"repro/internal/tensor.Tensor.ToFilterLayout": "relayouts filters in the tests of tensor, conv and cudart",
	"repro/internal/tune.StoreKey":                "derives store keys in the tests of tune and serve; the tuner itself calls storeKey",

	// Test seams: binaries run with the zero value.
	"repro/internal/gpu.Profiler.MaxEvents":            "TestProfileEventCap caps the timeline's events to check the cap; binaries keep the default",
	"repro/internal/gpu.Profiler.MaxSpans":             "TestProfileEventCap caps the timeline's spans to check the cap; binaries keep the default",
	"repro/internal/kernels.ConvOpts.Oracle":           "TestGeneratedKernelsOracleClean attaches the shared-memory oracle to real kernel runs",
	"repro/internal/microbench.Options.Machine":        "TestPerturbationDetected and TestCalibrateRejectsInvalidSpec calibrate against a perturbed or invalid machine",
	"repro/internal/sasscheck.VerifyOpts.NoExemptions": "TestScatterExemptionStillNeeded, TestSmemLayoutsConflictFree, TestGeneratedKernelsOracleClean and TestCheckSmem; goes with the exemption list (ROADMAP item 9)",
}

// TestNoTestOnlyExports fails on every package-level func, method, type,
// var and const of internal/, exported or not, that no binary reaches.
// It walks the reference graph of this module and of the benchmark
// module (../benchmark, which builds against the serving API) from
// their roots: the main functions of cmd/ and examples/, every non-test
// declaration of benchmark/, init functions, blank var initializers and
// the testOnlyExports entries. It also fails on every exported field of
// a package-level named struct type in internal/ that reached code reads
// but none sets, unless testOnlyExports names it as a test seam: a
// settable value that no binary sets. Last, it fails on every non-test
// file of either module that imports testing. reach_test.go holds the
// graph and its rules; this test loads the packages.
func TestNoTestOnlyExports(t *testing.T) {
	fset, pkgs := loadModule(t)
	dead, unset, keyErrs := deadCode(fset, pkgs, roots{
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
	for _, f := range unset {
		t.Errorf("%s: field %s is read but no binary sets it, so every binary reads its zero value: delete it or make it a constant",
			fset.Position(f.v.Pos()), f.key)
	}
	for _, pos := range testingImports(fset, pkgs) {
		t.Errorf("%s: a non-test file imports testing: move its code into the _test.go files of its callers", pos)
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
// of objects. Everything else comes from gc export data. `go list -deps`
// names the packages; `go list -export` then runs on the others alone,
// since export data for a module package would mean compiling it.
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
			outs[i], errs[i] = goList(dir, "-deps", "-json=ImportPath,Dir,GoFiles", "./...")
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
	decode := func(what string, out []byte, each func(p listed)) {
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var p listed
			if err := dec.Decode(&p); err != nil {
				t.Fatalf("go list %s: %v", what, err)
			}
			each(p)
		}
	}
	exportArgs := []string{"-export", "-json=ImportPath,Export"} // then the packages outside the modules
	for i, dir := range dirs {
		if errs[i] != nil {
			t.Fatalf("go list in %s: %v", dir, errs[i])
		}
		decode("in "+dir, outs[i], func(p listed) {
			if p.ImportPath != "repro" && !strings.HasPrefix(p.ImportPath, "repro/") {
				exportArgs = append(exportArgs, p.ImportPath)
				return
			}
			var names []string
			for _, name := range p.GoFiles {
				names = append(names, filepath.Join(p.Dir, name))
			}
			l.files[p.ImportPath] = names
		})
	}
	out, err := goList(".", exportArgs...)
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	decode("-export", out, func(p listed) { export[p.ImportPath] = p.Export })
	pkgs, err := l.checkAll()
	if err != nil {
		t.Fatal(err)
	}
	return fset, pkgs
}

// goList runs go list in dir, with its stderr in the error.
func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); ok {
		err = fmt.Errorf("%v\n%s", err, ee.Stderr)
	}
	return out, err
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
