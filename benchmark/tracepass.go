package benchmark

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/cubin"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/microbench"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tune"
	"repro/internal/turingas"
)

// MetricSpec is one catalogue entry: a metric's name, unit and which
// direction is better. BENCHMARK.json lists the same entries.
type MetricSpec struct {
	Name, Unit, Better string
}

// EndToEnd is what every untraced run reports, on every workload.
var EndToEnd = []MetricSpec{
	{"latency_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// PerLayer is what the traced pass reports. Each metric is measured on
// the traced form of the workload it explains (see README.md).
var PerLayer = []MetricSpec{
	{"loadgen.late_tail_ms", "ms", "lower"},
	{"serve.http_self_ms", "ms", "lower"},
	{"serve.reply_ms", "ms", "lower"},
	{"serve.assemble_ms", "ms", "lower"},
	{"serve.select_ms", "ms", "lower"},
	{"serve.select_calls", "count", "lower"},
	{"serve.select_computed", "count", "lower"},
	{"serve.select_model_share", "share", "lower"},
	{"cudart.forward_ms.fused.n32", "ms", "lower"},
	{"cudart.busy_share", "share", "lower"},
	{"serve.wait_p50_ms", "ms", "lower"},
	{"serve.wait_tail_ms", "ms", "lower"},
	{"serve.batches", "count", "lower"},
	{"serve.batch_fill", "share", "higher"},
	{"serve.batch_n32", "count", "lower"},
	{"serve.batch_n64", "count", "higher"},
	{"serve.batch_n96", "count", "higher"},
	{"serve.batch_n128", "count", "higher"},
	{"bench.prefetch_s", "s", "lower"},
	{"bench.render_s", "s", "lower"},
	{"bench.jobs_requested", "count", "lower"},
	{"bench.jobs_unique", "count", "lower"},
	{"kernels.source_ms", "ms", "lower"},
	{"kernels.unique", "count", "lower"},
	{"turingas.assemble_ms", "ms", "lower"},
	{"gpu.sim_s", "s", "lower"},
	{"gpu.warp_instrs", "count", "lower"},
	{"gpu.sim_cycles", "count", "lower"},
	{"gpu.winstr_per_s", "1/s", "higher"},
	{"microbench.calibrate_ms", "ms", "lower"},
	{"tune.static_prune_ms", "ms", "lower"},
	{"tune.lint_prune_ms", "ms", "lower"},
	{"store.load_ms", "ms", "lower"},
	{"store.save_ms", "ms", "lower"},
	{"store.entries", "count", "lower"},
}

// TracePass runs every workload once in traced form, in this process,
// recording spans in tr around calls into each layer's public
// functions, and returns the per-layer metrics. It is the same pass
// whichever workload a traced run names: per-layer metrics of layers a
// workload never calls would otherwise read zero. Outputs are checked as
// in the untraced workloads.
func TracePass(env *Env, tr *Tracer) (*Result, error) {
	res := newResult("trace")
	steps := []func(*Env, *Tracer, *Result) error{traceServe, traceTune, traceCalibrate, traceSweep}
	for _, step := range steps {
		if err := step(env, tr, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// one records a single-valued metric.
func (r *Result) one(name, unit string, v float64) { r.put(name, unit, []float64{v}) }

// check counts one checked operation of the traced pass.
func (r *Result) check(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

func durMillis(spans []Span) []float64 {
	ms := make([]float64, len(spans))
	for i, s := range spans {
		ms[i] = millis(s.Dur())
	}
	return ms
}

func sumMillis(spans []Span) float64 {
	t := 0.0
	for _, s := range spans {
		t += millis(s.Dur())
	}
	return t
}

// traceServe runs the light phase over HTTP and one burst through
// Submit on a server whose selector and executor are traced.
func traceServe(env *Env, tr *Tracer, res *Result) error {
	rig := newServeRig(tr)
	srv, _, err := rig.start()
	if err != nil {
		return err
	}
	defer srv.Close()
	sel := rig.exec.sel

	// Light: latency, HTTP and per-batch stage costs.
	dur := env.Seconds / 2
	if env.Smoke {
		dur = time.Second
	}
	light := NewLoad(env.Seed, PoissonArrivals(env.Seed, lightRate, dur), serveShares, rig.inLens())
	rig.exec.beginPhase("light/")
	selBefore := selectStats(sel)
	p := rig.run(srv, light, true)
	rig.exec.endPhase(p, true)
	rig.check(p, res)
	res.one("loadgen.late_tail_ms", "ms", tailOf(p.lateness()))
	res.put("serve.http_self_ms", "ms", tr.SelfTimes("light/", "serve.http"))
	res.put("serve.reply_ms", "ms", durMillis(tr.Find("light/", "serve.reply")))
	res.put("serve.assemble_ms", "ms", durMillis(tr.Find("light/", "serve.assemble")))
	res.put("serve.select_ms", "ms", durMillis(tr.Find("light/", "serve.select")))
	fwd := tr.Find("light/", "cudart.forward.fused.n32")
	res.put("cudart.forward_ms.fused.n32", "ms", durMillis(fwd))
	busy := 0.0
	for _, name := range spanNames(tr, "light/", "cudart.forward.") {
		busy += sumMillis(tr.Find("light/", name))
	}
	res.one("cudart.busy_share", "share", busy/millis(p.wall()))
	res.note("traced serve-light latency_ms: median %.3f (n=%d)", Summarize(p.latencies()).Median, len(p.latencies()))

	// Burst: queue wait and the batches the coalescer cuts.
	burst := NewLoad(env.Seed, FixedArrivals(burstN, burstRate), serveShares, rig.inLens())
	rig.exec.beginPhase("burst/")
	p = rig.run(srv, burst, false)
	batches := rig.exec.endPhase(p, false)
	rig.check(p, res)
	wait := durMillis(tr.Find("burst/", "serve.wait"))
	res.one("serve.wait_p50_ms", "ms", Summarize(wait).Median)
	res.one("serve.wait_tail_ms", "ms", tailOf(wait))
	res.one("serve.batches", "count", float64(len(batches)))
	filled, slots := 0, 0
	sizes := map[int]int{}
	for _, b := range batches {
		filled += b.filled
		slots += b.n
		sizes[b.n]++
	}
	res.one("serve.batch_fill", "share", float64(filled)/float64(max(slots, 1)))
	for _, size := range serve.SweetSpots() {
		res.one(fmt.Sprintf("serve.batch_n%d", size), "count", float64(sizes[size]))
	}
	res.note("traced serve-burst latency_ms: median %.3f (n=%d), drain %.3f ms", Summarize(p.latencies()).Median, len(p.latencies()), millis(p.wall()))

	after := selectStats(sel)
	calls, model := after[0]-selBefore[0], after[1]-selBefore[1]
	computed := 0
	for _, c := range sel.inner.ChooseCounts() {
		computed += c
	}
	res.one("serve.select_calls", "count", float64(calls))
	res.one("serve.select_computed", "count", float64(computed))
	res.one("serve.select_model_share", "share", float64(model)/float64(max(calls, 1)))
	for _, name := range spanNames(tr, "", "cudart.forward.") {
		if fs := tr.Find("", name); len(fs) > 0 {
			res.note("%s: median %.3f ms (n=%d)", name, Summarize(durMillis(fs)).Median, len(fs))
		}
	}
	return nil
}

func selectStats(s *tracedSelector) [2]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return [2]int{s.calls, s.model}
}

// spanNames lists the distinct span names with the given prefix.
func spanNames(tr *Tracer, tracePrefix, namePrefix string) []string {
	seen := map[string]bool{}
	var names []string
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Trace, tracePrefix) && strings.HasPrefix(s.Name, namePrefix) && !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	return names
}

// tailOf is the highest percentile the sample supports, or its largest
// value when it is too small for one.
func tailOf(values []float64) float64 {
	if _, v, ok := Tail(values); ok {
		return v
	}
	m := 0.0
	for _, v := range values {
		m = max(m, v)
	}
	return m
}

// traceTune times the tuner's static and lint pruning of the quick
// sweep's candidates, then what a warm tune does: load the committed
// store, tune on it without simulating, and save it back byte for byte.
func traceTune(env *Env, tr *Tracer, res *Result) error {
	dev := gpu.RTX2070()
	cases := tune.SweepCases(true)
	cands := tune.DefaultSpace().Enumerate()
	for _, c := range cases {
		var stats tune.PruneStats
		var kept []kernels.Config
		var err error
		tr.Time("tune", "tune.static_prune", 0, func(int) { kept = tune.StaticPrune(dev, c.P, cands, 6, &stats) })
		tr.Time("tune", "tune.lint_prune", 0, func(int) { _, err = tune.LintPrune(c.P, kept, &stats) })
		if err != nil {
			return err
		}
	}
	res.one("tune.static_prune_ms", "ms", sumMillis(tr.Find("tune", "tune.static_prune")))
	res.one("tune.lint_prune_ms", "ms", sumMillis(tr.Find("tune", "tune.lint_prune")))

	var st *store.Store
	goldenPath := filepath.Join(env.Root, "cmd", "winograd-bench", "testdata", "store_quick.golden")
	tr.Time("store", "store.load", 0, func(int) { st, _ = store.Load(goldenPath) })
	res.one("store.load_ms", "ms", sumMillis(tr.Find("store", "store.load")))
	res.one("store.entries", "count", float64(st.Len()))
	tuner := &tune.Tuner{Dev: dev, Budget: 6, Workers: env.CPUs}
	var results []tune.Result
	var err error
	tr.Time("tune", "tune.warm", 0, func(int) { results, _, err = tuner.Tune(st, cases) })
	if err != nil {
		return err
	}
	var out strings.Builder
	simulated := 0
	for _, r := range results {
		simulated += r.Simulated
	}
	for _, t := range []*bench.Table{tune.Report(dev, results), tune.SelectionTable(dev, results)} {
		out.WriteString(t.Format() + "\n")
	}
	if err = env.matchGolden(out.String(), "tune_quick.golden", false); err == nil && simulated != 0 {
		err = fmt.Errorf("warm tune simulated %d candidates, want 0", simulated)
	}
	res.check(err)

	path := filepath.Join(env.Work, "trace-store.json")
	tr.Time("store", "store.save", 0, func(int) { err = st.Save(path) })
	if err != nil {
		return err
	}
	res.one("store.save_ms", "ms", sumMillis(tr.Find("store", "store.save")))
	saved, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	res.check(env.matchGolden(string(saved), "store_quick.golden", false))
	return nil
}

// traceCalibrate runs the probe suite on RTX2070.
func traceCalibrate(env *Env, tr *Tracer, res *Result) error {
	var results []microbench.Result
	var err error
	tr.Time("calibrate", "microbench.calibrate", 0, func(int) { results, err = microbench.Calibrate(gpu.RTX2070(), microbench.Options{}) })
	if err != nil {
		return err
	}
	if !microbench.Pass(results) {
		err = fmt.Errorf("RTX2070 calibration failed: %s", strings.Join(microbench.Failures(results), "; "))
	}
	res.check(err)
	res.one("microbench.calibrate_ms", "ms", sumMillis(tr.Find("calibrate", "microbench.calibrate")))
	return nil
}

// traceSweep renders Figure 7 through bench.Runner and checks it
// against its part of quick_all.golden, then takes the figure's jobs one
// by one through the generator, the assembler and the simulator, sampled
// as bench samples them.
func traceSweep(env *Env, tr *Tracer, res *Result) error {
	fig7, _ := bench.Get("fig7")
	exps := []bench.Experiment{fig7}
	ctx := bench.NewCtx()
	ctx.Quick = true
	runner := &bench.Runner{Ctx: ctx, Workers: env.CPUs}
	var results []bench.ExperimentResult
	var stats *bench.RunStats
	var err error
	tr.Time("sweep", "bench.run", 0, func(int) { results, stats, err = runner.Run(exps) })
	if err != nil {
		return err
	}
	var out strings.Builder
	render := 0.0
	for _, r := range results {
		out.WriteString(r.Table.Format() + "\n")
		render += r.Elapsed.Seconds()
	}
	res.check(env.matchGolden(out.String(), "quick_all.golden", true))
	res.one("bench.prefetch_s", "s", stats.Prefetch.Seconds())
	res.one("bench.render_s", "s", render)
	res.one("bench.jobs_requested", "count", float64(stats.Requested))
	res.one("bench.jobs_unique", "count", float64(stats.Unique))

	seen := map[string]bool{}
	kernelKeys := map[string]bool{}
	var jobs []bench.Job
	for _, e := range exps {
		if e.Jobs == nil {
			continue
		}
		for _, j := range e.Jobs(ctx) {
			if k := j.Key(4); !seen[k] {
				seen[k] = true
				jobs = append(jobs, j)
				kernelKeys[fmt.Sprintf("%s|%s|%t", j.Cfg.Key(), j.P.Key(), j.MainOnly)] = true
			}
		}
	}
	res.one("kernels.unique", "count", float64(len(kernelKeys)))

	var mu sync.Mutex
	var instrs, cycles int64
	var firstErr error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < env.CPUs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				in, cyc, err := traceJob(tr, fmt.Sprintf("job-%d", i), jobs[i])
				mu.Lock()
				instrs, cycles = instrs+in, cycles+cyc
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	sim := sumMillis(tr.Find("job-", "gpu.sim")) / 1000
	res.one("kernels.source_ms", "ms", sumMillis(tr.Find("job-", "kernels.source")))
	res.one("turingas.assemble_ms", "ms", sumMillis(tr.Find("job-", "turingas.assemble")))
	res.one("gpu.sim_s", "s", sim)
	res.one("gpu.warp_instrs", "count", float64(instrs))
	res.one("gpu.sim_cycles", "count", float64(cycles))
	res.one("gpu.winstr_per_s", "1/s", float64(instrs)/sim)
	return nil
}

// traceJob generates, assembles and simulates one sweep job with bench's
// sampling (BlocksPerSM × 4 waves of blocks), returning the warp
// instructions issued and cycles simulated by both launches.
func traceJob(tr *Tracer, trace string, j bench.Job) (instrs, cycles int64, err error) {
	tr.Time(trace, "bench.job", 0, func(job int) {
		var src string
		tr.Time(trace, "kernels.source", job, func(int) { src, err = kernels.Source(j.Cfg, j.P, j.MainOnly) })
		if err != nil {
			return
		}
		var k *cubin.Kernel
		tr.Time(trace, "turingas.assemble", job, func(int) { k, err = turingas.AssembleKernel(src) })
		if err != nil {
			return
		}
		occ, oerr := j.Dev.OccupancyFor(256, k.NumRegs, k.SmemBytes)
		if oerr != nil {
			err = oerr
			return
		}
		var r *kernels.ConvResult
		tr.Time(trace, "gpu.sim", job, func(int) {
			r, err = kernels.RunConvWith(j.Dev, j.Cfg, j.P, kernels.ConvOpts{
				SampleBlocks: occ.BlocksPerSM * 4, MainLoopOnly: j.MainOnly, Hot: j.Hot})
		})
		if err != nil {
			return
		}
		for _, m := range []*gpu.Metrics{r.Main, r.FTF} {
			if m != nil {
				instrs += m.Issued
				cycles += m.Cycles
			}
		}
	})
	return instrs, cycles, err
}
