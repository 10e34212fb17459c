// Benchmarks: one target per table/figure of the paper's evaluation, plus
// CPU-library benchmarks for the Winograd substrate itself. The simulator
// benchmarks use a reduced sweep (Conv4 at N=32) so `go test -bench=.`
// terminates quickly; the full sweeps are `cmd/winograd-bench all`.
package repro

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/conv"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// --- CPU library benchmarks ------------------------------------------

func cpuProblem() (*tensor.Tensor, *tensor.Tensor) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 4, C: 64, H: 28, W: 28})
	in.FillRandom(1)
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 64, C: 64, R: 3, S: 3})
	flt.FillRandom(2)
	return in, flt
}

func BenchmarkCPUDirect(b *testing.B) {
	in, flt := cpuProblem()
	for i := 0; i < b.N; i++ {
		if _, err := conv.DirectParallel(in, flt, conv.Params{Pad: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUIm2colGEMM(b *testing.B) {
	in, flt := cpuProblem()
	for i := 0; i < b.N; i++ {
		if _, err := conv.Im2col(in, flt, conv.Params{Pad: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUWinogradFusedF2(b *testing.B) {
	in, flt := cpuProblem()
	for i := 0; i < b.N; i++ {
		if _, err := winograd.Conv2D(in, flt, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCPUWinogradNonfusedF4(b *testing.B) {
	in, flt := cpuProblem()
	for i := 0; i < b.N; i++ {
		f, err := winograd.PrepareNonFused(flt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := winograd.Conv(in, &f, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator-backed experiment benchmarks ---------------------------

// benchLayer is the reduced configuration the per-figure benchmarks use.
var benchLayer = kernels.Problem{C: 256, K: 256, N: 32, H: 14, W: 14} // Conv4N32

func simSample(b *testing.B, dev gpu.Device, cfg kernels.Config, mainOnly bool) *bench.Sample {
	b.Helper()
	ctx := bench.NewCtx()
	ctx.Waves = 2
	s, err := ctx.KernelSample(dev, cfg, benchLayer, mainOnly)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkTable2CuDNNWinogradV100 regenerates one cell of Table 2.
func BenchmarkTable2CuDNNWinogradV100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := simSample(b, gpu.V100(), kernels.CuDNNLike(), false)
		tGemm := model.Seconds(model.AlgoImplicitPrecompGEMM,
			model.Shape{C: 256, K: 256, H: 14, W: 14, N: 32}, gpu.V100())
		b.ReportMetric(tGemm/s.Seconds(gpu.V100()), "speedup-vs-GEMM")
	}
}

// BenchmarkFig7Yield regenerates the yield study on one layer.
func BenchmarkFig7Yield(b *testing.B) {
	for _, v := range []struct {
		name  string
		every int
	}{{"Natural", 0}, {"NVCC8", 8}, {"cuDNN7", 7}} {
		b.Run(v.name, func(b *testing.B) {
			cfg := kernels.Ours()
			cfg.YieldEvery = v.every
			for i := 0; i < b.N; i++ {
				s := simSample(b, gpu.RTX2070(), cfg, true)
				b.ReportMetric(s.DeviceTFLOPS(gpu.RTX2070()), "simTFLOPS")
			}
		})
	}
}

// BenchmarkFig8LDG regenerates the LDG-spacing study on one layer.
func BenchmarkFig8LDG(b *testing.B) {
	for _, gap := range []int{2, 4, 8} {
		b.Run(map[int]string{2: "LDG2", 4: "LDG4", 8: "LDG8"}[gap], func(b *testing.B) {
			cfg := kernels.Ours()
			cfg.LDGGap = gap
			for i := 0; i < b.N; i++ {
				s := simSample(b, gpu.RTX2070(), cfg, true)
				b.ReportMetric(s.DeviceTFLOPS(gpu.RTX2070()), "simTFLOPS")
			}
		})
	}
}

// BenchmarkFig9STS regenerates the STS-spacing study on one layer.
func BenchmarkFig9STS(b *testing.B) {
	for _, gap := range []int{2, 4, 6} {
		b.Run(map[int]string{2: "STS2", 4: "STS4", 6: "STS6"}[gap], func(b *testing.B) {
			cfg := kernels.Ours()
			cfg.STSGap = gap
			for i := 0; i < b.N; i++ {
				s := simSample(b, gpu.RTX2070(), cfg, true)
				b.ReportMetric(s.DeviceTFLOPS(gpu.RTX2070()), "simTFLOPS")
			}
		})
	}
}

// BenchmarkTable6Speedup regenerates the headline comparison on one layer
// per device.
func BenchmarkTable6Speedup(b *testing.B) {
	for _, dev := range []gpu.Device{gpu.RTX2070(), gpu.V100()} {
		b.Run(dev.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ours := simSample(b, dev, kernels.Ours(), false)
				base := simSample(b, dev, kernels.CuDNNLike(), false)
				b.ReportMetric(base.Seconds(dev)/ours.Seconds(dev), "speedup")
			}
		})
	}
}

// BenchmarkFig10SOL regenerates the Speed-of-Light measurement.
func BenchmarkFig10SOL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		main := simSample(b, gpu.RTX2070(), kernels.Ours(), true)
		full := simSample(b, gpu.RTX2070(), kernels.Ours(), false)
		b.ReportMetric(main.SOL*100, "mainloopSOL%")
		b.ReportMetric(full.SOL*100, "totalSOL%")
	}
}

// BenchmarkFig11SOLV100 is the V100 counterpart.
func BenchmarkFig11SOLV100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		main := simSample(b, gpu.V100(), kernels.Ours(), true)
		b.ReportMetric(main.SOL*100, "mainloopSOL%")
	}
}

// BenchmarkFig12AlgoComparison regenerates one row of Figure 12.
func BenchmarkFig12AlgoComparison(b *testing.B) {
	dev := gpu.RTX2070()
	shape := model.Shape{C: 256, K: 256, H: 14, W: 14, N: 32}
	for i := 0; i < b.N; i++ {
		ours := simSample(b, dev, kernels.Ours(), false)
		t := ours.Seconds(dev)
		b.ReportMetric(model.Seconds(model.AlgoImplicitPrecompGEMM, shape, dev)/t, "vsPrecompGEMM")
		b.ReportMetric(model.Seconds(model.AlgoFFT, shape, dev)/t, "vsFFT")
		b.ReportMetric(model.Seconds(model.AlgoWinogradNonfused, shape, dev)/t, "vsNonfused")
	}
}

// BenchmarkFig14Workspace measures the workspace accounting itself.
func BenchmarkFig14Workspace(b *testing.B) {
	shape := model.Shape{C: 64, K: 64, H: 56, W: 56, N: 32}
	var sink int64
	for i := 0; i < b.N; i++ {
		for _, a := range model.Algos() {
			sink += model.WorkspaceBytes(a, shape)
		}
	}
	_ = sink
}

// BenchmarkBreakEven measures the Section 8.1 sweep.
func BenchmarkBreakEven(b *testing.B) {
	s := model.Shape{C: 256, K: 1, H: 14, W: 14, N: 32}
	for i := 0; i < b.N; i++ {
		k := model.BreakEvenK(s, gpu.V100(), 1024)
		b.ReportMetric(float64(k), "breakevenK")
	}
}

// BenchmarkBatchedGEMMKernel measures the generated 16-batched GEMM
// kernel (the paper's Section 2.3 sub-problem) on the simulator.
func BenchmarkBatchedGEMMKernel(b *testing.B) {
	p := kernels.GemmProblem{Batch: 16, M: 64, N: 32, K: 64}
	k, err := kernels.GenerateBatchedGEMM(kernels.Ours(), p)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sim := gpu.NewSim(gpu.RTX2070())
		a := sim.Alloc(p.Batch*p.K*p.M*4 + 1<<20)
		bb := sim.Alloc(p.Batch*p.K*p.N*4 + 1<<20)
		c := sim.Alloc(p.Batch * p.M * p.N * 4)
		gx, gy, gz := kernels.GemmGrid(p)
		m, err := sim.Launch(k, gpu.LaunchOpts{Grid: gx, GridY: gy, GridZ: gz, Block: 256,
			Params: []uint32{a.Addr, bb.Addr, c.Addr}})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(m.SOL()*100, "SOL%")
	}
}

// BenchmarkSimulatorThroughput reports raw simulator speed (simulated
// warp-instructions per second) on the Winograd main loop.
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}
	for i := 0; i < b.N; i++ {
		res, err := kernels.RunConvWith(gpu.RTX2070(), kernels.Ours(), p, kernels.ConvOpts{SampleBlocks: 1, MainLoopOnly: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Main.Issued), "warpInstrs")
	}
}
