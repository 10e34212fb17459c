// wbbench is the repository's benchmark program.
//
// Usage:
//
//	wbbench [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-o FILE] [-cpus N] [-root DIR] [-work DIR] [-cli BIN]
//	wbbench compare [-spec BENCHMARK.json] A[,A...] B[,B...]
//
// An untraced run measures the end-to-end metrics of one workload, or of
// each workload in turn (each in a fresh child process) with -workload
// all. A traced run (-trace 1) runs the traced pass over every workload
// instead and reports the per-layer metrics; it writes its spans as
// Chrome trace-event JSON. Every run checks its outputs, prints each
// metric with its unit, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"latency_ms": {"value": 17.2, "unit": "ms"}, ...}}
//
// -o writes the same results with every metric's quartiles and sample
// count; `wbbench compare` reads two sets of such files (comma-separated
// runs per side) and exits 1 when the second regresses beyond a bound
// in BENCHMARK.json or fails more often.
//
// The exit code is 0 when every output was correct, 1 when any was not
// or the run could not complete, and 2 on bad usage or when -root is not
// a checkout of the repository.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/benchmark"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	if len(argv) > 0 && argv[0] == "compare" {
		return runCompare(argv[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("wbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long each workload keeps starting operations")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "traced runs write their spans here (default WORK/spans.json)")
	out := fs.String("o", "", "write the results, with quartiles and sample counts, to this JSON file")
	cpus := fs.Int("cpus", 2, "GOMAXPROCS for this process and the CLI, and the CLI's -jobs")
	root := fs.String("root", ".", "repository checkout to benchmark")
	work := fs.String("work", "", "scratch directory (default ROOT/.bench_build/work)")
	cli := fs.String("cli", "", "prebuilt winograd-bench binary (default: build it from ROOT)")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *cpus < 1 {
		fs.Usage()
		return 2
	}
	if _, err := os.Stat(filepath.Join(*root, "cmd", "winograd-bench", "testdata")); err != nil {
		fmt.Fprintf(stderr, "wbbench: %s is not a checkout of the repository: %v\n", *root, err)
		return 2
	}
	var names []string
	if *workload == "all" {
		for _, w := range benchmark.Workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := benchmark.WorkloadByName(*workload); ok {
		names = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "wbbench: unknown workload %q\n", *workload)
		return 2
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "work")
	}
	// Children run in the work directory and get store paths under it,
	// so it must not be relative.
	abs, err := filepath.Abs(*work)
	if err == nil {
		*work = abs
		err = os.MkdirAll(abs, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wbbench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(*cpus)
	env := &benchmark.Env{Root: *root, Work: *work, CLI: *cli, Seed: *seed,
		Seconds: time.Duration(*seconds * float64(time.Second)), CPUs: *cpus}
	rep := &benchmark.Report{Schema: benchmark.ReportSchema, Seed: *seed, Seconds: *seconds, CPUs: *cpus, Traced: *trace == 1}

	switch {
	case *trace == 1:
		err = traced(env, rep, *spans, stdout)
	case len(names) == 1:
		err = single(env, rep, names[0])
	default:
		err = each(env, rep, names, argv, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "wbbench: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(stderr, "wbbench: %v\n", err)
			return 1
		}
	}
	catalogue := benchmark.EndToEnd
	if rep.Traced {
		catalogue = benchmark.PerLayer
	}
	if !summarize(stdout, rep, catalogue) {
		return 1
	}
	return 0
}

// traced runs the traced pass and writes its spans.
func traced(env *benchmark.Env, rep *benchmark.Report, spans string, stdout io.Writer) error {
	tr := benchmark.NewTracer()
	res, err := benchmark.TracePass(env, tr)
	if err != nil {
		return err
	}
	if spans == "" {
		spans = filepath.Join(env.Work, "spans.json")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(spans, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(tr.Spans()), spans)
	rep.Results = append(rep.Results, res)
	return nil
}

// single runs one workload in this process.
func single(env *benchmark.Env, rep *benchmark.Report, name string) error {
	w, _ := benchmark.WorkloadByName(name)
	if w.CLI && env.CLI == "" {
		bin, err := benchmark.BuildCLI(env.Root, filepath.Join(env.Work, "bin"))
		if err != nil {
			return err
		}
		env.CLI = bin
	}
	res, err := w.Run(env)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	rep.Results = append(rep.Results, res)
	return nil
}

// each runs every named workload in a fresh child process, so that no
// workload inherits another's heap, goroutines or peak memory.
func each(env *benchmark.Env, rep *benchmark.Report, names, argv []string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if env.CLI == "" {
		if env.CLI, err = benchmark.BuildCLI(env.Root, filepath.Join(env.Work, "bin")); err != nil {
			return err
		}
	}
	for _, name := range names {
		part := filepath.Join(env.Work, name+".json")
		if err := os.Remove(part); err != nil && !os.IsNotExist(err) {
			return err
		}
		args := append(withoutFlags(argv, "workload", "o", "cli"), "-workload", name, "-o", part, "-cli", env.CLI)
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		// A child that found wrong outputs exits 1 but still writes its
		// report; the failures then count in this run's summary.
		runErr := cmd.Run()
		r, err := benchmark.ReadReport(part)
		if err != nil {
			if runErr != nil {
				return fmt.Errorf("%s: %w", name, runErr)
			}
			return err
		}
		rep.Results = append(rep.Results, r.Results...)
	}
	return nil
}

// withoutFlags drops the named flags, and their values, from argv.
func withoutFlags(argv []string, names ...string) []string {
	drop := map[string]bool{}
	for _, n := range names {
		drop["-"+n], drop["--"+n] = true, true
	}
	var out []string
	for i := 0; i < len(argv); i++ {
		name, _, hasValue := strings.Cut(argv[i], "=")
		if drop[name] {
			if !hasValue {
				i++
			}
			continue
		}
		out = append(out, argv[i])
	}
	return out
}

// summarize prints every metric by workload and name, with its unit,
// then the closing JSON line, and reports whether every output was
// correct and every catalogued metric was measured.
func summarize(w io.Writer, rep *benchmark.Report, catalogue []benchmark.MetricSpec) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range rep.Results {
		fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", res.Workload, res.Attempted, res.Failed)
		names := make([]string, 0, len(res.Metrics))
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := res.Metrics[n]
			fmt.Fprintf(w, "  %-34s %14.4f %-5s (q1 %.4f, q3 %.4f, n=%d)\n", n, m.Median, m.Unit, m.Q1, m.Q3, m.N)
		}
		for _, note := range res.Notes {
			fmt.Fprintf(w, "  note: %s\n", note)
		}
		for _, e := range res.Errors {
			fmt.Fprintf(w, "  FAIL: %s\n", e)
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, spec := range catalogue {
			m, ok := res.Metrics[spec.Name]
			if !ok {
				fmt.Fprintf(w, "  FAIL: metric %s was not measured\n", spec.Name)
				line.Correct = false
				continue
			}
			key := spec.Name
			if len(rep.Results) > 1 {
				key = res.Workload + "/" + spec.Name
			}
			line.Metrics[key] = value{Value: m.Median, Unit: m.Unit}
		}
	}
	if line.Failed > 0 || line.Attempted == 0 {
		line.Correct = false
	}
	b, _ := json.Marshal(line) // plain numbers and strings always marshal
	fmt.Fprintln(w, string(b))
	return line.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCompare is `wbbench compare`: A and B are comma-separated lists of
// report files, one per run.
func runCompare(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wbbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: wbbench compare [-spec BENCHMARK.json] A[,A...] B[,B...]")
		return 2
	}
	spec, err := benchmark.ReadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "wbbench compare: %v\n", err)
		return 2
	}
	var sides [2][]*benchmark.Report
	for i, list := range fs.Args() {
		for _, path := range strings.Split(list, ",") {
			r, err := benchmark.ReadReport(path)
			if err != nil {
				fmt.Fprintf(stderr, "wbbench compare: %v\n", err)
				return 2
			}
			sides[i] = append(sides[i], r)
		}
	}
	rows := benchmark.Compare(spec, sides[0], sides[1])
	benchmark.PrintRows(stdout, rows)
	for _, r := range rows {
		if r.Regressed() {
			return 1
		}
	}
	return 0
}
