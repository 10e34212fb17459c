package bench

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
)

func quickCtx() *Ctx {
	return &Ctx{Waves: 2, Quick: true}
}

func TestLayersMatchTable1(t *testing.T) {
	ls := Layers()
	if len(ls) != 4 {
		t.Fatalf("expected 4 layers, got %d", len(ls))
	}
	want := []Layer{
		{"Conv2", 64, 64, 56}, {"Conv3", 128, 128, 28},
		{"Conv4", 256, 256, 14}, {"Conv5", 512, 512, 7},
	}
	for i, l := range ls {
		if l != want[i] {
			t.Fatalf("layer %d = %+v, want %+v", i, l, want[i])
		}
	}
	if got := ls[0].Tag(32); got != "Conv2N32" {
		t.Fatalf("tag = %q", got)
	}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := []string{"table1", "table2", "fig2", "fig7", "fig8", "fig9",
		"table6", "table7", "fig10", "fig11", "fig12", "fig13", "fig14",
		"breakeven", "ablation", "numerics"}
	for _, id := range ids {
		if _, ok := Get(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id should not resolve")
	}
	if len(All()) != len(ids) {
		t.Fatalf("registry has %d experiments, want %d", len(All()), len(ids))
	}
}

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Note("hello")
	txt := tb.Format()
	for _, want := range []string{"demo", "a", "bb", "note: hello"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("Format missing %q:\n%s", want, txt)
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| a | bb |") {
		t.Fatalf("Markdown header wrong:\n%s", md)
	}
}

func TestStaticExperiments(t *testing.T) {
	c := quickCtx()
	for _, id := range []string{"table1", "table7", "fig2", "fig14", "breakeven", "numerics"} {
		e, _ := Get(id)
		tb, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestKernelSampleCaching(t *testing.T) {
	c := quickCtx()
	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	s1, err := c.KernelSample(gpu.RTX2070(), kernels.Ours(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.KernelSample(gpu.RTX2070(), kernels.Ours(), p, true)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("expected a cache hit for identical sample requests")
	}
	// H=W=4 -> 2x2 spatial tiles -> 4 blocks in the grid.
	if s1.CyclesPerWave <= 0 || s1.SOL <= 0 || s1.TotalBlocks != 4 {
		t.Fatalf("sample fields: %+v", s1)
	}
}

func TestSampleExtrapolation(t *testing.T) {
	c := quickCtx()
	dev := gpu.RTX2070()
	// Conv4N32 on RTX2070: 49 blocksN * 4 blocksK = 196 blocks over 36
	// SMs at 1 block/SM = 6 waves.
	l := Layers()[2]
	s, err := c.KernelSample(dev, kernels.Ours(), l.Problem(32), true)
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalBlocks != 196 {
		t.Fatalf("blocks = %d, want 196", s.TotalBlocks)
	}
	secs := s.Seconds(dev)
	wantWaves := 6.0
	if got := secs * dev.ClockGHz * 1e9 / s.CyclesPerWave; math.Abs(got-wantWaves) > 1e-9 {
		t.Fatalf("wave count = %v, want %v", got, wantWaves)
	}
	if tf := s.DeviceTFLOPS(dev); tf <= 0 || tf > dev.PeakFP32TFLOPS() {
		t.Fatalf("TFLOPS = %v outside (0, peak]", tf)
	}
}

// TestQuickSimExperiments runs the simulator-backed experiments on the
// reduced sweep; full sweeps live in the benchmark harness.
func TestQuickSimExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator experiments are not short")
	}
	c := quickCtx()
	for _, id := range []string{"fig7", "fig9", "table6", "fig10"} {
		e, _ := Get(id)
		tb, err := e.Run(c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}
