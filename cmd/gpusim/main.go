// gpusim runs the paper's Winograd kernels on the simulated GPU and
// prints launch metrics — a quick way to inspect one configuration
// without the full bench harness.
//
// Usage:
//
//	gpusim [-dev NAME] [-layer conv2..conv5] [-n 32] [-bk 64]
//	       [-yield 0] [-ldg 8] [-sts 6] [-mainloop] [-waves 4] [-verify]
//	       [-prof] [-trace trace.json] [-backend threaded|switch]
//
// -dev accepts any registered device name (see internal/gpu/devices);
// an unknown name lists the registered ones.
//
// -verify runs a reduced problem end to end (all blocks simulated) and
// checks the simulated kernel's output against the CPU reference.
//
// -prof attaches the profiler and prints stall-attribution reports with
// annotated SASS listings for both launches (the memory-bound filter
// transform, then the sampled main kernel). -trace also writes the main
// kernel's warp timeline as a Chrome trace (load at chrome://tracing or
// ui.perfetto.dev) and implies profiling.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/conv"
	"repro/internal/gpu"
	"repro/internal/gpu/prof"
	"repro/internal/kernels"
	"repro/internal/tensor"
)

func main() {
	devName := flag.String("dev", "rtx2070", "registered device name (unknown value lists the registry)")
	layer := flag.String("layer", "conv4", "ResNet layer: conv2..conv5")
	n := flag.Int("n", 32, "batch size")
	bk := flag.Int("bk", 64, "filter-dimension cache block (64 = paper, 32 = cuDNN-like)")
	yield := flag.Int("yield", 0, "clear yield flag every N float instructions (0 = natural)")
	ldg := flag.Int("ldg", 8, "FFMAs between LDGs")
	sts := flag.Int("sts", 6, "float instructions between STSs")
	mainloop := flag.Bool("mainloop", false, "measure the main loop only")
	waves := flag.Int("waves", 4, "occupancy-waves to sample")
	verify := flag.Bool("verify", false, "run a reduced problem fully and verify against CPU reference")
	profFlag := flag.Bool("prof", false, "print stall-attribution reports with annotated SASS listings")
	trace := flag.String("trace", "", "write the main kernel's warp timeline as a Chrome trace to this file (implies -prof)")
	backendFlag := flag.String("backend", "threaded", "simulator execution backend (threaded or switch; bit-identical results)")
	flag.Parse()

	be, err := gpu.ParseBackend(*backendFlag)
	if err != nil {
		fatal(err)
	}

	dev, err := gpu.DeviceByName(*devName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		os.Exit(2)
	}

	var l bench.Layer
	found := false
	for _, cand := range bench.Layers() {
		if cand.Name == capitalize(*layer) {
			l, found = cand, true
		}
	}
	if !found {
		fmt.Fprintln(os.Stderr, "unknown layer", *layer)
		os.Exit(2)
	}

	cfg := kernels.Config{BK: *bk, YieldEvery: *yield, LDGGap: *ldg, STSGap: *sts, UseP2R: true}
	if *bk == 32 {
		cfg.DeclaredSmem = 48 * 1024
	}

	if *verify {
		p := kernels.Problem{C: 16, K: *bk, N: 32, H: 8, W: 8}
		if l.HW == 7 {
			p.H, p.W = 7, 7
		}
		in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: p.N, C: p.C, H: p.H, W: p.W})
		in.FillRandom(1)
		flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: p.K, C: p.C, R: 3, S: 3})
		flt.FillRandom(2)
		res, err := kernels.RunConvWith(dev, cfg, p, kernels.ConvOpts{
			In: in, Flt: flt, HazardCheck: true, Backend: be,
		})
		if err != nil {
			fatal(err)
		}
		want, err := conv.DirectParallel(in, flt, conv.Params{Pad: 1})
		if err != nil {
			fatal(err)
		}
		diff := tensor.MaxRelDiff(want, res.Output.ToLayout(tensor.NCHW))
		fmt.Printf("verification on %+v: max relative error vs direct convolution = %.2e\n", p, diff)
		if diff > 2e-4 {
			fatal(fmt.Errorf("verification FAILED"))
		}
		fmt.Println("verification PASSED (hazard checker clean)")
		return
	}

	p := l.Problem(*n)
	ctx := bench.NewCtx()
	ctx.Waves = *waves
	ctx.Profile = *profFlag || *trace != ""
	ctx.ProfileTimeline = *trace != ""
	ctx.Backend = be
	s, err := ctx.KernelSample(dev, cfg, p, *mainloop)
	if err != nil {
		fatal(err)
	}
	m := s.Metrics
	fmt.Printf("%s %s (C=%d K=%d HxW=%dx%d N=%d) bk=%d on %s\n",
		l.Name, map[bool]string{true: "main loop", false: "full kernel"}[*mainloop],
		p.C, p.K, p.H, p.W, p.N, *bk, dev.Name)
	fmt.Printf("  occupancy:     %d block(s)/SM (%s-limited), %d warps/scheduler\n",
		s.Occ.BlocksPerSM, s.Occ.Limiter, s.Occ.WarpsPerScheduler)
	fmt.Printf("  grid:          %d blocks -> %.0f device waves\n", s.TotalBlocks,
		float64(s.TotalBlocks)/float64(dev.SMs*s.Occ.BlocksPerSM))
	fmt.Printf("  cycles/wave:   %.0f\n", s.CyclesPerWave)
	fmt.Printf("  SOL:           %.1f%%\n", s.SOL*100)
	fmt.Printf("  device math:   %.2f TFLOPS (peak %.2f)\n", s.DeviceTFLOPS(dev), dev.PeakFP32TFLOPS())
	fmt.Printf("  effective:     %.2f TFLOPS direct-conv-equivalent\n", s.EffectiveTFLOPS(dev, p))
	fmt.Printf("  est. runtime:  %.3f ms\n", s.Seconds(dev)*1e3)
	fmt.Printf("  switches=%d regBankConf=%d smemConf=%d smemQStall=%d mshrStall=%d L2 %d/%d hits\n",
		m.SwitchCount, m.RegBankConflicts, m.SmemConflictCycles,
		m.MIOStallCycles, m.MSHRStallCycles, m.L2Hits, m.L2Hits+m.L2Misses)

	if ctx.Profile {
		for _, lp := range []*gpu.LaunchProfile{s.FTFProf, s.Prof} {
			fmt.Println()
			if err := prof.Text(os.Stdout, lp); err != nil {
				fatal(err)
			}
		}
	}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		if err := prof.WriteChromeTrace(f, s.Prof); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace of the main kernel to %s\n", *trace)
	}
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	b := []byte(s)
	if b[0] >= 'a' && b[0] <= 'z' {
		b[0] -= 32
	}
	return string(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusim:", err)
	os.Exit(1)
}
