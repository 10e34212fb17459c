// Package perf is the repository's performance-regression harness. It
// has only test files: no binary links it, and `go test` is how it runs.
//
// It defines the benchmark suite covering the hot paths every experiment
// funnels through (simulator inner loop, assembler, kernel generation,
// CPU Winograd), a JSON report format (BENCH_sim.json at the repository
// root), and a comparison gate that fails when the current tree regresses
// against the committed baseline.
//
// Three entry points:
//
//	go test -bench=. ./internal/perf            # run the suite interactively
//	go test ./internal/perf -benchjson ../../BENCH_sim.json   # refresh baseline
//	go test ./internal/perf -run TestPerfDiff -perfdiff ../../BENCH_sim.json
//
// Cross-machine comparability: absolute ns/op is machine-dependent, so
// every report embeds a calibration result (a fixed pure-float spin) and
// the gate scales the baseline's timings by the calibration ratio before
// comparing. Allocation counts are deterministic and compared without
// scaling — they are the tripwire that catches "accidentally reintroduced
// an allocation into the issue path" even on noisy CI machines.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cudart"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/microbench"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/tune"
	"repro/internal/turingas"
	"repro/internal/winograd"
)

// CalibrationName is the fixed-work benchmark used to normalize timings
// across machines.
const CalibrationName = "calibrate/fpspin"

// Benchmark is one named target of the suite.
type Benchmark struct {
	Name string
	F    func(b *testing.B)
}

// perfProblem is the reduced layer the simulator targets use: big enough
// to reach the software-pipelined steady state, small enough that one
// sample stays in the tens of milliseconds.
var perfProblem = kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}

// Benchmarks returns the suite. Each target runs both under
// `go test -bench` (BenchmarkHotPaths) and through Collect.
func Benchmarks() []Benchmark {
	return []Benchmark{
		{CalibrationName, benchCalibrate},
		{"sim/mainloop", benchSimMainLoop},
		{"sim/mainloop-prof", benchSimMainLoopProf},
		{"sim/threaded", benchSimThreaded},
		{"sim/parallel", benchSimParallel},
		{"sim/steadystate", benchSimSteadyState},
		{"turingas/assemble", benchAssemble},
		{"kernels/source", benchKernelSource},
		{"winograd/conv2d", benchWinogradConv2D},
		{"tune/staticprune", benchTuneStaticPrune},
		{"store/load", benchStoreLoad},
		{"serve/handler/conv_a", benchHandler("conv_a")},
		{"serve/handler/conv_b", benchHandler("conv_b")},
		{"forward/conv_a_live1/fused", benchForwardLive1("conv_a")},
		{"forward/conv_b_live1/fused", benchForwardLive1("conv_b")},
		{"microbench/calibrate", benchMicrobenchCalibrate},
	}
}

// benchMicrobenchCalibrate measures the full device-calibration probe
// suite on the default device — the fixed per-device cost the calibrate
// CLI and the CI calibration job pay. The suite launches dozens of tiny
// kernels, so this target also tracks the simulator's launch and
// assembly-cache overheads that the main-loop targets amortize away.
func benchMicrobenchCalibrate(b *testing.B) {
	dev := gpu.RTX2070()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := microbench.Calibrate(dev, microbench.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !microbench.Pass(res) {
			b.Fatal("calibration failed")
		}
	}
}

// benchTuneStaticPrune measures the autotuner's static planning path —
// knob-space enumeration plus roofline ranking — which every tune run
// pays per layer before any simulation.
func benchTuneStaticPrune(b *testing.B) {
	dev := gpu.RTX2070()
	space := tune.DefaultSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var stats tune.PruneStats
		kept := tune.StaticPrune(dev, perfProblem, space.Enumerate(), 12, &stats)
		if len(kept) == 0 {
			b.Fatal("static prune kept nothing")
		}
	}
}

// quickStore is the committed quick-tune store, relative to this
// package's directory, where the suite runs.
const quickStore = "../../cmd/winograd-bench/testdata/store_quick.golden"

// benchStoreLoad measures the store work of a warm tune outside key
// derivation: Load of the committed quick store and each of its entries
// checked as the tuner checks a hit. A warm tune that loads cleanly
// never saves, so neither does this. The inputs each hit is checked
// against come from one full decode before the timer.
func benchStoreLoad(b *testing.B) {
	st, _ := store.Load(quickStore) // the timed loop checks the load
	var want []tune.Entry
	for _, se := range st.Entries() {
		e, err := tune.EntryFromStore(se)
		if err != nil {
			b.Fatal(err)
		}
		want = append(want, e)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, rep := store.Load(quickStore)
		if len(rep.Warnings) != 0 || st.Len() == 0 {
			b.Fatalf("loading %s: %d entries, %v", quickStore, st.Len(), rep.Warnings)
		}
		for j, se := range st.Entries() {
			w := want[j]
			if _, err := tune.EntryForKey(se, w.Device, w.Shape, w.Waves, w.Config); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fusedSelector chooses the fused kernel for every batch.
type fusedSelector struct{}

func (fusedSelector) Choose(gpu.Device, kernels.Problem) (tune.Choice, error) {
	return tune.Choice{Algo: tune.AlgoFused}, nil
}

// handlerWriter is a reusable http.ResponseWriter that keeps only the
// status and the reply's length, so the handler rows time the handler.
type handlerWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *handlerWriter) Header() http.Header         { return w.header }
func (w *handlerWriter) WriteHeader(code int)        { w.code = code }
func (w *handlerWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// handlerBody is a request body that rewinds for the next request.
type handlerBody struct{ bytes.Reader }

func (*handlerBody) Close() error { return nil }

// benchHandler returns the row timing a warm lone request for layer
// through the server's Handler().ServeHTTP with the default executor,
// as a lone serve-light request runs: the body's decode, admission, a
// fused forward of the one live image of an N=32 batch from the
// model's prepared weights, and the reply's encode.
func benchHandler(layer string) func(b *testing.B) {
	return func(b *testing.B) {
		model := serve.DemoModel(31)
		s, err := serve.NewServer(serve.Config{Model: model, Selector: fusedSelector{}})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		spec, _, _ := model.Layer(layer)
		img := make([]float32, spec.InLen())
		r := tensor.NewRNG(7)
		for i := range img {
			img[i] = r.Float32() - 0.5
		}
		body, err := json.Marshal(map[string]any{"device": gpu.RTX2070().Name, "layer": layer, "image": img})
		if err != nil {
			b.Fatal(err)
		}
		h := s.Handler()
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", nil)
		rb := &handlerBody{}
		req.Body = rb
		w := &handlerWriter{header: http.Header{}}
		serveOne := func() {
			rb.Reset(body)
			w.code, w.n = 0, 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK || w.n == 0 {
				b.Fatalf("%s: status %d, %d reply bytes", layer, w.code, w.n)
			}
		}
		serveOne() // warm: the pooled buffers and blocks
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			serveOne()
		}
	}
}

// benchForwardLive1 returns the row timing the fused forward of a lone
// request for layer as the server runs it: the demo model's weights
// prepared once, then one live image of an N=32 batch per call. It is
// the executor's share of a serve/handler row, without the wire codec.
func benchForwardLive1(layer string) func(b *testing.B) {
	return func(b *testing.B) {
		spec, flt, _ := serve.DemoModel(31).Layer(layer)
		w, err := cudart.Prepare(flt)
		if err != nil {
			b.Fatal(err)
		}
		in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: 1, C: spec.C, H: spec.H, W: spec.W})
		in.FillRandom(7)
		fused := tune.Choice{Algo: tune.AlgoFused}
		if _, err := w.Forward(in, 32, fused); err != nil { // warm: the pooled blocks
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Forward(in, 32, fused); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchCalibrate runs a fixed amount of scalar float work. Its ns/op
// measures the machine, not the repository, and anchors cross-machine
// comparisons.
func benchCalibrate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x, y := float32(1.0), float32(0.0)
		for j := 0; j < 5_000_000; j++ {
			y = x*1.0000001 + y
			x = y*0.9999999 + x
		}
		if x == 0 { // keep the loop live
			b.Fatal("calibration underflow")
		}
	}
}

// benchSimMainLoop measures the simulator's per-instruction hot path on
// the Winograd main loop (one hot block on one SM — the configuration of
// the paper's scheduling studies). It reports simulated warp instructions
// and cycles per wall second.
func benchSimMainLoop(b *testing.B) {
	b.ReportAllocs()
	var instrs, cycles float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := kernels.RunConvWith(gpu.RTX2070(), kernels.Ours(), perfProblem, kernels.ConvOpts{
			SampleBlocks: 1, MainLoopOnly: true, Hot: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		instrs += float64(res.Main.Issued)
		cycles += float64(res.Main.Cycles)
	}
	secs := time.Since(start).Seconds()
	if secs > 0 {
		b.ReportMetric(instrs/secs, "warpinstrs/s")
		b.ReportMetric(cycles/secs, "simcycles/s")
	}
}

// benchSimMainLoopProf is benchSimMainLoop with a profiler attached
// (aggregates only, no timeline) — the cost of stall attribution itself.
// Comparing its ns/op against sim/mainloop bounds the profiling
// overhead; the <2% zero-cost-when-off contract is enforced separately
// by gating sim/mainloop against the committed baseline.
func benchSimMainLoopProf(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := gpu.NewProfiler()
		res, err := kernels.RunConvWith(gpu.RTX2070(), kernels.Ours(), perfProblem, kernels.ConvOpts{
			SampleBlocks: 1, MainLoopOnly: true, Hot: true, Prof: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Launches) != 2 || res.Main.WarpCycles[gpu.StallNone] == 0 {
			b.Fatal("profiler collected nothing")
		}
	}
}

// benchFullConv measures a full functional convolution (filter
// transform + main kernel over the whole grid, output read back) on the
// threaded backend, sharded across GOMAXPROCS workers, so one report
// carries the single-worker interpreter and the parallel path side by
// side — measured together on one machine, which is the only way their
// ratio is meaningful.
func benchFullConv(b *testing.B) {
	p := perfProblem
	in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: p.N, C: p.C, H: p.H, W: p.W})
	in.FillRandom(1)
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: p.K, C: p.C, R: 3, S: 3})
	flt.FillRandom(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernels.RunConvWith(gpu.RTX2070(), kernels.Ours(), p, kernels.ConvOpts{
			In: in, Flt: flt,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimThreaded is the threaded interpreter on one worker, no
// parallelism. The switch backend is not measured: it runs every
// instruction through the per-lane reference exec by design, as the
// differential tests' oracle, not as a production path.
func benchSimThreaded(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchFullConv(b)
}

// benchSimParallel is the production path: threaded interpreter, sharded
// across GOMAXPROCS workers.
func benchSimParallel(b *testing.B) {
	benchFullConv(b)
}

// benchSimSteadyState measures repeated sharded launches on one reused
// Sim — the threaded backend's zero-allocation contract. Its allocs/op
// is pinned at exactly 0 in the committed baseline (and by the hard
// test in internal/gpu): the instance pools, launch plans, shard
// results, and worker L2 clones must all recycle.
func benchSimSteadyState(b *testing.B) {
	p := perfProblem
	cfg := kernels.Ours()
	main, err := kernels.Generate(cfg, p, false)
	if err != nil {
		b.Fatal(err)
	}
	sim := gpu.NewSim(gpu.RTX2070())
	slackIn := 8 * p.H * p.W * p.N * 4
	slackFlt := 8 * 16 * p.K * 4
	inBuf := sim.Alloc(p.C*p.H*p.W*p.N*4 + slackIn)
	fhatBuf := sim.Alloc(p.C*16*p.K*4 + slackFlt)
	outBuf := sim.Alloc(p.K * p.H * p.W * p.N * 4)
	gx, gy, gz := kernels.GridFor(cfg, p)
	opts := gpu.LaunchOpts{
		Grid: gx, GridY: gy, GridZ: gz, Block: 256,
		Params:  []uint32{inBuf.Addr, fhatBuf.Addr, outBuf.Addr},
		Sharded: true,
	}
	var m gpu.Metrics
	if err := sim.LaunchM(main, opts, &m); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.LaunchM(main, opts, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAssemble measures the assembler on a generated main-kernel source
// (bypassing the generation cache so every iteration does real work).
func benchAssemble(b *testing.B) {
	src, err := kernels.Source(kernels.Ours(), perfProblem, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := turingas.AssembleKernel(src); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernelSource measures kernel-source generation (scheduling,
// register allocation, control-code assignment — everything before the
// assembler).
func benchKernelSource(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kernels.Source(kernels.Ours(), perfProblem, false); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWinogradConv2D measures the CPU Winograd library (the reference
// the simulator results are validated against) on one worker.
func benchWinogradConv2D(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 4, C: 32, H: 14, W: 14})
	in.FillRandom(1)
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 32, C: 32, R: 3, S: 3})
	flt.FillRandom(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := winograd.Conv2D(in, flt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Result is one benchmark's measurement.
type Result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the BENCH_sim.json schema.
type Report struct {
	Schema    string `json:"schema"` // "bench_sim/v1"
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPUs      int    `json:"cpus"`
	// QuickSweepSeconds is the wall time of `winograd-bench -quick all`
	// run in-process on one worker. Informational: the gate compares
	// calibrated ns/op and allocation counts, not wall time.
	QuickSweepSeconds float64  `json:"quick_sweep_seconds"`
	Results           []Result `json:"results"`
}

// Collect runs the suite via testing.Benchmark and, when quickSweep is
// set, times the full quick experiment sweep in-process.
func Collect(quickSweep bool) (*Report, error) {
	r := &Report{
		Schema:    "bench_sim/v1",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
	}
	for _, bm := range Benchmarks() {
		br := testing.Benchmark(bm.F)
		if br.N == 0 {
			return nil, fmt.Errorf("perf: benchmark %s did not run", bm.Name)
		}
		res := Result{
			Name:        bm.Name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
		}
		if len(br.Extra) > 0 {
			res.Extra = make(map[string]float64, len(br.Extra))
			for k, v := range br.Extra {
				res.Extra[k] = v
			}
		}
		r.Results = append(r.Results, res)
	}
	sort.Slice(r.Results, func(i, j int) bool { return r.Results[i].Name < r.Results[j].Name })
	if quickSweep {
		secs, err := timeQuickSweep()
		if err != nil {
			return nil, err
		}
		r.QuickSweepSeconds = secs
	}
	return r, nil
}

// timeQuickSweep runs every experiment in quick mode on one worker and
// returns the wall seconds — the number the tentpole's speedup target is
// stated against.
func timeQuickSweep() (float64, error) {
	ctx := bench.NewCtx()
	ctx.Waves = 4
	ctx.Quick = true
	runner := &bench.Runner{Ctx: ctx, Workers: 1}
	start := time.Now()
	if _, _, err := runner.Run(bench.All()); err != nil {
		return 0, fmt.Errorf("perf: quick sweep: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// WriteFile writes the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a committed baseline.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("perf: %s: %w", path, err)
	}
	if r.Schema != "bench_sim/v1" {
		return nil, fmt.Errorf("perf: %s: unknown schema %q", path, r.Schema)
	}
	return &r, nil
}

func (r *Report) find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Compare gates cur against base and returns one message per regression
// (empty means pass).
//
//   - Timings: cur ns/op may exceed the baseline's by at most timeTol
//     (fractional, e.g. 0.10 = 10%) after the baseline is rescaled by the
//     calibration ratio of the two reports.
//   - Allocations: allocs/op may exceed the baseline by at most allocTol
//     plus an absolute slack of 2 (runtime-internal noise on tiny counts).
//     Below half the baseline less the same slack, the row is stale: it
//     would let allocations grow back unnoticed, so it must be re-recorded.
//   - A benchmark present in the baseline but missing from cur is a
//     failure; benchmarks new in cur are NOT failures — Unbaselined
//     reports them as warnings, and they gate once committed to the
//     baseline. (Failing on them would make it impossible to add a
//     target and its baseline in one PR: the gate runs before the
//     refreshed BENCH_sim.json exists.)
func Compare(base, cur *Report, timeTol, allocTol float64) []string {
	var msgs []string
	scale := 1.0
	bc, cc := base.find(CalibrationName), cur.find(CalibrationName)
	if bc != nil && cc != nil && bc.NsPerOp > 0 {
		scale = cc.NsPerOp / bc.NsPerOp
	}
	for i := range base.Results {
		b := &base.Results[i]
		if b.Name == CalibrationName {
			continue
		}
		c := cur.find(b.Name)
		if c == nil {
			msgs = append(msgs, fmt.Sprintf("%s: present in baseline but not measured", b.Name))
			continue
		}
		if limit := b.NsPerOp * scale * (1 + timeTol); c.NsPerOp > limit {
			msgs = append(msgs, fmt.Sprintf("%s: %.0f ns/op exceeds calibrated baseline %.0f ns/op by more than %.0f%% (machine scale %.2fx)",
				b.Name, c.NsPerOp, b.NsPerOp*scale, timeTol*100, scale))
		}
		allocLimit := float64(b.AllocsPerOp)*(1+allocTol) + 2
		if float64(c.AllocsPerOp) > allocLimit {
			msgs = append(msgs, fmt.Sprintf("%s: %d allocs/op exceeds baseline %d by more than %.0f%%+2",
				b.Name, c.AllocsPerOp, b.AllocsPerOp, allocTol*100))
		}
		if float64(c.AllocsPerOp) < float64(b.AllocsPerOp)/2-2 {
			msgs = append(msgs, fmt.Sprintf("%s: %d allocs/op is below half of baseline %d less 2: stale baseline, re-record",
				b.Name, c.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return msgs
}

// Unbaselined lists benchmarks measured in cur that the baseline has no
// entry for — targets added since BENCH_sim.json was last refreshed.
// These are warnings, not gate failures: the target starts gating on the
// first baseline refresh that includes it.
func Unbaselined(base, cur *Report) []string {
	var msgs []string
	for i := range cur.Results {
		c := &cur.Results[i]
		if c.Name == CalibrationName {
			continue
		}
		if base.find(c.Name) == nil {
			msgs = append(msgs, fmt.Sprintf("%s: unbaselined (not in the committed baseline yet; refresh with -benchjson to start gating it)", c.Name))
		}
	}
	return msgs
}
