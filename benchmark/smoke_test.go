package benchmark

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cudart"
	"repro/internal/serve"
	"repro/internal/tune"
)

func smokeEnv(t *testing.T, seconds time.Duration) *Env {
	return &Env{Root: "..", Work: t.TempDir(), Seed: 1, Seconds: seconds, CPUs: 2, Smoke: true}
}

// checkResult fails the test unless every operation succeeded and every
// catalogued metric was measured.
func checkResult(t *testing.T, res *Result, err error, catalogue []MetricSpec) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("%s: %d of %d failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
	}
	for _, m := range catalogue {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit || got.N == 0 {
			t.Errorf("%s: metric %s = %+v, want unit %s", res.Workload, m.Name, got, m.Unit)
		}
	}
}

// TestSmokeServe runs both serve workloads for about a second each.
func TestSmokeServe(t *testing.T) {
	for _, name := range []string{"serve-light", "serve-burst"} {
		w, _ := WorkloadByName(name)
		res, err := w.Run(smokeEnv(t, time.Second))
		checkResult(t, res, err, EndToEnd)
	}
}

func buildCLI(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs winograd-bench")
	}
	bin, err := BuildCLI("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestSmokeCLI runs one checked invocation of each CLI workload.
func TestSmokeCLI(t *testing.T) {
	bin := buildCLI(t)
	for _, w := range Workloads {
		if !w.CLI {
			continue
		}
		env := smokeEnv(t, time.Millisecond)
		env.CLI = bin
		res, err := w.Run(env)
		checkResult(t, res, err, EndToEnd)
	}
}

// TestCorruptGoldenFails: one changed byte in a golden fails every
// invocation checked against it.
func TestCorruptGoldenFails(t *testing.T) {
	env := smokeEnv(t, time.Millisecond)
	env.CLI = buildCLI(t)
	env.Root = t.TempDir()
	dir := filepath.Join(env.Root, "cmd", "winograd-bench", "testdata")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"store_quick.golden", "tune_quick.golden"} {
		golden, err := os.ReadFile("../cmd/winograd-bench/testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "tune_quick.golden" {
			golden[len(golden)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, name), golden, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, _ := WorkloadByName("tune-warm")
	res, err := w.Run(env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("%d of %d invocations failed against a corrupted golden", res.Failed, res.Attempted)
	}
}

// TestSmokeTrace runs the traced pass at smoke size.
func TestSmokeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates and tunes")
	}
	tr := NewTracer()
	res, err := TracePass(smokeEnv(t, time.Second), tr)
	checkResult(t, res, err, PerLayer)
	if len(tr.Find("light/", "serve.http")) == 0 || len(tr.Find("burst/", "serve.exec")) == 0 {
		t.Fatal("no per-request serve spans recorded")
	}
}

// TestServeCheckTolerance: a reply off by more than its algorithm's
// tolerance fails the check, and within it passes.
func TestServeCheckTolerance(t *testing.T) {
	rig := newServeRig(nil)
	load := NewLoad(1, FixedArrivals(1, 1), serveShares, rig.inLens())
	layer, img := load.Layer[0], load.Images[0]
	spec, flt, _ := rig.model.Layer(rig.names[layer])
	out, err := cudart.Forward(serve.AssembleBatch(spec, [][]float32{img}, 32), flt, tune.Choice{Algo: tune.AlgoFused})
	if err != nil {
		t.Fatal(err)
	}
	var reply []float32
	for k := 0; k < spec.K; k++ {
		for y := 0; y < spec.H; y++ {
			for x := 0; x < spec.W; x++ {
				reply = append(reply, out.ImageAt(0, k, y, x))
			}
		}
	}
	if err := rig.compare(layer, img, reply, tune.AlgoFused); err != nil {
		t.Fatalf("a correct reply failed: %v", err)
	}
	reply[len(reply)/2] += 5e-4
	if rig.compare(layer, img, reply, tune.AlgoFused) == nil {
		t.Fatal("a fused reply off by 5e-4 passed the 1e-4 tolerance")
	}
	if err := rig.compare(layer, img, reply, tune.AlgoNonfused); err != nil {
		t.Fatalf("a non-fused reply off by 5e-4 failed the 1e-3 tolerance: %v", err)
	}
}
