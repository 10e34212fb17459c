package bench

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
)

func runnerWorkers() int {
	// The concurrency criteria require the runner to exercise at least 4
	// workers even on small machines.
	if w := runtime.GOMAXPROCS(0); w > 4 {
		return w
	}
	return 4
}

// renderAll runs every experiment through a Runner with the given worker
// count and returns the concatenated rendered tables. It also enforces
// that every experiment's Jobs declaration is complete: after the
// prefetch phase, rendering must not add a single simulation.
func renderAll(t *testing.T, workers int) string {
	t.Helper()
	ctx := &Ctx{Waves: 1, Quick: true}
	r := &Runner{Ctx: ctx, Workers: workers}
	results, stats, err := r.Run(All())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ctx.flight.ComputeCounts()); got != stats.Unique {
		t.Fatalf("render phase simulated %d extra samples beyond the %d prefetched: "+
			"an experiment's Jobs declaration is incomplete", got-stats.Unique, stats.Unique)
	}
	if len(stats.Jobs) != stats.Unique {
		t.Fatalf("stats recorded %d job timings for %d unique jobs", len(stats.Jobs), stats.Unique)
	}
	var b strings.Builder
	for _, res := range results {
		b.WriteString(res.Table.Format())
		b.WriteString(res.Table.Markdown())
	}
	return b.String()
}

// TestRunnerDeterminism is the scheduling-not-numerics guarantee: the
// quick suite rendered with one worker and with >= 4 workers must be
// byte-identical, plain text and markdown both.
func TestRunnerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator experiments are not short")
	}
	seq := renderAll(t, 1)
	par := renderAll(t, runnerWorkers())
	if seq != par {
		t.Fatalf("parallel run differs from sequential run:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
			seq, runnerWorkers(), par)
	}
	if len(seq) == 0 {
		t.Fatal("no table output rendered")
	}
}

// TestRunnerProfiledDeterminism exercises the profiler under the
// concurrent runner (the -race CI job makes this the profiling race
// test): with Profile set, a 1-worker and a >=4-worker run of the
// ablation experiment must render identical stall-breakdown columns,
// and every sample must carry both launch profiles.
func TestRunnerProfiledDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator experiments are not short")
	}
	abl, _ := Get("ablation")
	render := func(workers int) (string, *Ctx) {
		ctx := &Ctx{Waves: 1, Quick: true, Profile: true, ProfileTimeline: true}
		r := &Runner{Ctx: ctx, Workers: workers}
		results, _, err := r.Run([]Experiment{abl})
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Table.Format(), ctx
	}
	seq, _ := render(1)
	par, ctx := render(runnerWorkers())
	if seq != par {
		t.Fatalf("profiled parallel run differs from sequential run:\n--- jobs=1 ---\n%s\n--- jobs=%d ---\n%s",
			seq, runnerWorkers(), par)
	}
	if !strings.Contains(seq, "dep-bar") {
		t.Fatalf("profiled ablation table lacks stall columns:\n%s", seq)
	}

	// Every cached sample of the profiled run carries both launches,
	// and the attribution reconciles with the sample's metrics.
	n := 0
	for key := range ctx.flight.ComputeCounts() {
		s, err := ctx.flight.Do(key, func() (*Sample, error) { return nil, fmt.Errorf("%s not cached", key) })
		if err != nil {
			t.Fatal(err)
		}
		if s.Prof == nil || s.FTFProf == nil {
			t.Fatal("profiled sample missing a launch profile")
		}
		if s.Prof.TotalWarpCycles() == 0 || len(s.Prof.Warps) == 0 {
			t.Fatal("empty main-kernel profile")
		}
		var tot int64
		for _, v := range s.Metrics.WarpCycles {
			tot += v
		}
		if tot != s.Prof.TotalWarpCycles() {
			t.Fatalf("metrics warp-cycles %d != profile %d", tot, s.Prof.TotalWarpCycles())
		}
		n++
	}
	if n == 0 {
		t.Fatal("no samples cached")
	}
}

// TestRunnerCrossExperimentDedup proves a sample requested by two
// experiments in one run simulates exactly once: table6 and fig10 both
// need (RTX2070, Ours, full kernel) samples, so the requested job count
// exceeds the unique count, and no cache key records more than one
// simulation.
func TestRunnerCrossExperimentDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator experiments are not short")
	}
	ctx := &Ctx{Waves: 1, Quick: true}
	t6, _ := Get("table6")
	f10, _ := Get("fig10")

	// The two experiments must genuinely overlap in at least one job key.
	keys := map[string]bool{}
	for _, j := range t6.Jobs(ctx) {
		keys[j.Key(ctx.waves())] = true
	}
	overlap := 0
	for _, j := range f10.Jobs(ctx) {
		if keys[j.Key(ctx.waves())] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatal("table6 and fig10 declare no shared jobs; dedup test is vacuous")
	}

	r := &Runner{Ctx: ctx, Workers: runnerWorkers()}
	_, stats, err := r.Run([]Experiment{t6, f10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requested <= stats.Unique {
		t.Fatalf("requested %d jobs, %d unique: expected cross-experiment overlap", stats.Requested, stats.Unique)
	}
	counts := ctx.flight.ComputeCounts()
	if want := stats.Unique; len(counts) != want {
		t.Fatalf("simulated %d samples, want %d (one per unique job)", len(counts), want)
	}
	for key, n := range counts {
		if n != 1 {
			t.Fatalf("job %s simulated %d times, want exactly 1", key, n)
		}
	}
}

// TestRunnerPropagatesErrors: a job that cannot simulate (K not a
// multiple of bk) fails the run with a useful error instead of hanging
// the pool.
func TestRunnerPropagatesErrors(t *testing.T) {
	bad := Experiment{
		ID:    "bad",
		Title: "invalid problem",
		Jobs: func(c *Ctx) []Job {
			return []Job{{Dev: gpu.RTX2070(), Cfg: kernels.Ours(), P: kernels.Problem{C: 8, K: 48, N: 32, H: 4, W: 4}}}
		},
		Run: func(c *Ctx) (*Table, error) {
			_, err := c.KernelSample(gpu.RTX2070(), kernels.Ours(), kernels.Problem{C: 8, K: 48, N: 32, H: 4, W: 4}, false)
			return nil, err
		},
	}
	r := &Runner{Ctx: &Ctx{Waves: 1, Quick: true}, Workers: 4}
	_, _, err := r.Run([]Experiment{bad})
	if err == nil {
		t.Fatal("expected the invalid job to fail the run")
	}
	if !strings.Contains(err.Error(), "multiple of bk") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRunnerUndeclaredSampleStillWorks: an experiment with a nil Jobs
// declaration must still render correctly (samples fill on demand).
func TestRunnerUndeclaredSampleStillWorks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator experiments are not short")
	}
	undeclared := Experiment{
		ID:    "undeclared",
		Title: "no jobs declared",
		Run: func(c *Ctx) (*Table, error) {
			s, err := c.KernelSample(gpu.RTX2070(), kernels.Ours(), kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}, true)
			if err != nil {
				return nil, err
			}
			tb := &Table{ID: "undeclared", Title: "demo", Header: []string{"blocks"}}
			tb.AddRow(fmt.Sprint(s.TotalBlocks))
			return tb, nil
		},
	}
	r := &Runner{Ctx: &Ctx{Waves: 1, Quick: true}, Workers: 4}
	results, stats, err := r.Run([]Experiment{undeclared})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique != 0 {
		t.Fatalf("no jobs were declared but %d prefetched", stats.Unique)
	}
	if len(results) != 1 || len(results[0].Table.Rows) != 1 {
		t.Fatalf("unexpected results: %+v", results)
	}
}
