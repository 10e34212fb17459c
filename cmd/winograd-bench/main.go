// winograd-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	winograd-bench [-waves N] [-quick] [-markdown] [-jobs N] [-timings] [-prof] [experiment ...]
//	winograd-bench [-waves N] [-quick] [-jobs N] [-budget N] [-store PATH] [-shard i/N] [-storeverify] [-device D] tune
//	winograd-bench [-jobs N] [-markdown] [-backend B] [-device D] calibrate
//	winograd-bench [-requests N] [-seed S] [-jobs N] [-waves N] [-device D] [-store PATH] [-serveexec K] [-listen ADDR] serve
//	winograd-bench store merge -o OUT IN...
//	winograd-bench store ls PATH...
//	winograd-bench store verify PATH...
//
// With no arguments it lists the available experiments; "all" runs the
// whole evaluation in paper order. Experiment ids may be repeated and
// mixed with "all" — the selection is deduplicated and always runs in
// paper order. Sample simulation is scheduled across -jobs workers with
// cross-experiment deduplication; tables go to stdout (byte-identical
// for any -jobs value), timings and scheduling stats to stderr.
//
// The `tune` subcommand searches the kernels.Config knob space per
// ResNet layer on the simulator (statically pruned, budgeted by
// -budget), persists measurements to the content-addressed experiment
// store at -store, and prints the tuned-vs-default report and per-layer
// algorithm selection.
// With -shard i/N it measures only its deterministic partition of the
// pruned lattice and writes a partial store; `store merge` over all N
// partials reproduces the single-process store byte for byte.
//
// The `store` subcommand operates on store/v1 files: `merge` unions
// partial stores (loud on conflicts), `ls` lists entries, and `verify`
// exits non-zero on any quarantined, conflicting, or (for tune-mode
// entries) round-trip-failing entry.
//
// The `serve` subcommand is the batched inference service's harness: by
// default it runs the deterministic load generator (virtual-time
// simulation of the batching policy with sampled real cudart.Forward
// executions) and prints per-shape latency percentiles, batch-size
// occupancy, and execution checksums — byte-identical for a fixed -seed
// whatever -jobs is. With -listen it serves POST /v1/infer for real.
//
// The `calibrate` subcommand runs the internal/microbench probe suite
// against every registered device file (or just -device when given) and
// prints, per device, the probe report plus the per-layer algorithm
// selection implied by the analytic model — the standing check that the
// device specs and the simulator still agree.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/kernels"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an injectable argv and output streams, so
// the golden-table test can assert on exact stdout bytes. Tables go to
// stdout only; everything timing-dependent goes to stderr.
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("winograd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	waves := fs.Int("waves", 4, "occupancy-waves to simulate per sample")
	quick := fs.Bool("quick", false, "reduced layer/batch sweep")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent simulation jobs (1 = sequential)")
	timings := fs.Bool("timings", false, "print per-job timing detail to stderr")
	profile := fs.Bool("prof", false, "profile every sample and add stall-breakdown columns where tables support them")
	backend := fs.String("backend", "threaded", "simulator execution backend (threaded or switch; bit-identical results)")
	simWorkers := fs.Int("simworkers", 0, "worker goroutines per sharded full-grid simulation (0 = GOMAXPROCS)")
	budget := fs.Int("budget", 12, "tune: max simulated candidate configs per layer (paper default always included)")
	storePath := fs.String("store", "", "tune: path of the content-addressed store/v1 experiment store (empty = in-memory only)")
	storeVerify := fs.Bool("storeverify", false, "tune: force the full key round-trip check on every store hit")
	shard := fs.String("shard", "", "tune: deterministic lattice partition i/N; requires -store, suppresses tables")
	device := fs.String("device", "rtx2070", "tune/calibrate/serve: registered device name (see `winograd-bench` listing)")
	requests := fs.Int("requests", 4000, "serve: load-generator arrivals")
	seed := fs.Uint64("seed", 42, "serve: load-generator seed (the report is a pure function of seed and config)")
	serveExec := fs.Int("serveexec", 23, "serve: really execute every K-th dispatched batch (<0 disables)")
	listen := fs.String("listen", "", "serve: serve POST /v1/infer at this address instead of generating load")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	deviceSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "device" {
			deviceSet = true
		}
	})
	be, err := gpu.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench: %v\n", err)
		return 2
	}

	args := fs.Args()
	if len(args) == 0 {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "  %-10s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "  all        run everything in paper order")
		fmt.Fprintln(stdout, "  tune       autotune per-layer configs and algorithm selection")
		fmt.Fprintln(stdout, "  serve      batched inference service: load generation or -listen HTTP serving")
		fmt.Fprintln(stdout, "  calibrate  probe every registered device spec against the simulator")
		fmt.Fprintln(stdout, "  store      merge/ls/verify content-addressed experiment stores")
		fmt.Fprintf(stdout, "devices: %s\n", strings.Join(gpu.DeviceNames(), ", "))
		return 0
	}

	// `tune` is a subcommand, not an experiment: it owns its own sweep,
	// store, and tables, so it cannot be mixed with experiment ids.
	if len(args) == 1 && args[0] == "tune" {
		return runTune(tuneOpts{waves: *waves, quick: *quick, markdown: *markdown,
			jobs: *jobs, budget: *budget, storePath: *storePath,
			storeVerify: *storeVerify, shard: *shard, device: *device}, stdout, stderr)
	}

	// `serve` is the inference-service harness: load generation by
	// default, a live HTTP server with -listen.
	if len(args) == 1 && args[0] == "serve" {
		return runServe(serveOpts{requests: *requests, seed: *seed, jobs: *jobs,
			markdown: *markdown, waves: *waves, device: *device,
			storePath: *storePath, storeVerify: *storeVerify,
			execEvery: *serveExec, listen: *listen}, stdout, stderr)
	}

	// `store` operates on store/v1 files: merge, ls, verify.
	if len(args) >= 1 && args[0] == "store" {
		return runStore(args[1:], stdout, stderr)
	}

	// `calibrate` is likewise its own subcommand. -device defaults to
	// "every registered device"; it narrows only when set explicitly.
	if len(args) == 1 && args[0] == "calibrate" {
		o := calibrateOpts{jobs: *jobs, markdown: *markdown, backend: be}
		if deviceSet {
			o.device = *device
		}
		return runCalibrate(o, stdout, stderr)
	}

	// Resolve the selection: "all" may be mixed with explicit ids,
	// duplicates collapse, and the run order is always paper order.
	// Unknown ids are all reported before exiting non-zero.
	selected := map[string]bool{}
	runAll := false
	var unknown []string
	seenUnknown := map[string]bool{}
	for _, id := range args {
		if id == "all" {
			runAll = true
			continue
		}
		if _, ok := bench.Get(id); !ok {
			if !seenUnknown[id] {
				seenUnknown[id] = true
				unknown = append(unknown, id)
			}
			continue
		}
		selected[id] = true
	}
	if len(unknown) > 0 {
		for _, id := range unknown {
			fmt.Fprintf(stderr, "unknown experiment %q\n", id)
		}
		fmt.Fprintln(stderr, "run with no arguments for the list")
		return 2
	}
	var todo []bench.Experiment
	for _, e := range bench.All() {
		if runAll || selected[e.ID] {
			todo = append(todo, e)
		}
	}

	ctx := bench.NewCtx()
	ctx.Waves = *waves
	ctx.Quick = *quick
	ctx.Profile = *profile
	ctx.Sim = kernels.SimOpts{Backend: be, Workers: *simWorkers}

	runner := &bench.Runner{Ctx: ctx, Workers: *jobs}
	start := time.Now()
	results, stats, err := runner.Run(todo)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench: %v\n", err)
		return 1
	}

	for _, res := range results {
		if *markdown {
			fmt.Fprintln(stdout, res.Table.Markdown())
		} else {
			fmt.Fprintln(stdout, res.Table.Format())
		}
		fmt.Fprintf(stderr, "(%s rendered in %v)\n", res.Experiment.ID, res.Elapsed.Round(time.Millisecond))
	}

	fmt.Fprintf(stderr, "simulated %d unique jobs (%d requested, %d deduplicated across experiments) in %v on %d workers; total %v\n",
		stats.Unique, stats.Requested, stats.Requested-stats.Unique,
		stats.Prefetch.Round(time.Millisecond), stats.Workers,
		time.Since(start).Round(time.Millisecond))
	if *timings {
		for _, jt := range stats.SlowestJobs(len(stats.Jobs)) {
			fmt.Fprintf(stderr, "  %8v  %s\n", jt.Elapsed.Round(time.Millisecond), jt.Key)
		}
	}
	return 0
}
