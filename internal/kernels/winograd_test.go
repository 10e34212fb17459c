package kernels

import (
	"testing"

	"repro/internal/conv"
	"repro/internal/gpu"
	"repro/internal/tensor"
)

// smallProblem builds a minimal legal problem for the generator.
func smallProblem(bk int) Problem {
	return Problem{C: 8, K: bk, N: 32, H: 4, W: 4}
}

func runAndCompare(t *testing.T, cfg Config, p Problem, dev gpu.Device) *ConvResult {
	t.Helper()
	in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: p.N, C: p.C, H: p.H, W: p.W})
	in.FillRandom(101)
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: p.K, C: p.C, R: 3, S: 3})
	flt.FillRandom(102)

	res, err := RunConvWith(dev, cfg, p, ConvOpts{In: in, Flt: flt, HazardCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := conv.DirectParallel(in, flt, conv.Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Output.ToLayout(tensor.NCHW)
	if d := tensor.MaxRelDiff(want, got); d > 2e-4 {
		t.Fatalf("simulated kernel differs from direct conv by %v", d)
	}
	return res
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{BK: 48}, smallProblem(64), false); err == nil {
		t.Fatal("BK=48 should be rejected")
	}
	if _, err := Generate(Ours(), Problem{C: 8, K: 64, N: 31, H: 4, W: 4}, false); err == nil {
		t.Fatal("N=31 should be rejected")
	}
	if _, err := Generate(Ours(), Problem{C: 12, K: 64, N: 32, H: 4, W: 4}, false); err == nil {
		t.Fatal("C=12 should be rejected")
	}
	if _, err := Generate(Ours(), Problem{C: 8, K: 64, N: 32, H: 1, W: 4}, false); err == nil {
		t.Fatal("H=1 should be rejected")
	}
}

func TestOddOutputPartialTiles(t *testing.T) {
	// The ResNet Conv5 shape class: 7x7 output, partial tiles at the
	// bottom/right edges (paper Section 7.3 observation 2).
	runAndCompare(t, Ours(), Problem{C: 8, K: 64, N: 32, H: 7, W: 7}, gpu.RTX2070())
}

func TestOddWidthOnly(t *testing.T) {
	runAndCompare(t, Ours(), Problem{C: 8, K: 64, N: 32, H: 4, W: 5}, gpu.RTX2070())
}

func TestOddOutputCuDNNLike(t *testing.T) {
	runAndCompare(t, CuDNNLike(), Problem{C: 8, K: 32, N: 32, H: 7, W: 7}, gpu.RTX2070())
}

func TestGeneratedSourceAssembles(t *testing.T) {
	for _, cfg := range []Config{Ours(), CuDNNLike()} {
		p := smallProblem(cfg.BK)
		src, err := Source(cfg, p, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(src) < 1000 {
			t.Fatalf("suspiciously small kernel source (%d bytes)", len(src))
		}
		if _, err := Generate(cfg, p, false); err != nil {
			t.Fatalf("bk=%d: %v", cfg.BK, err)
		}
	}
}

func TestOursKernelMatchesDirectTiny(t *testing.T) {
	// One block in every grid dimension: C=8 (1 iteration), K=64, 4
	// spatial tiles, 32 batch.
	runAndCompare(t, Ours(), smallProblem(64), gpu.RTX2070())
}

func TestOursKernelMultiIteration(t *testing.T) {
	// C=24: three main-loop iterations exercise the software pipeline.
	runAndCompare(t, Ours(), Problem{C: 24, K: 64, N: 32, H: 4, W: 4}, gpu.RTX2070())
}

func TestOursKernelMultiBlockSpatial(t *testing.T) {
	// 6x6 output -> 9 spatial tiles... must be even tiles; H=W=6 gives
	// tilesH=tilesW=3, 9 spatial blocks, exercising the magic division.
	runAndCompare(t, Ours(), Problem{C: 8, K: 64, N: 32, H: 6, W: 6}, gpu.RTX2070())
}

func TestOursKernelMultiK(t *testing.T) {
	// Two blocks along K.
	runAndCompare(t, Ours(), Problem{C: 8, K: 128, N: 32, H: 4, W: 4}, gpu.RTX2070())
}

func TestOursKernelMultiBatchChunk(t *testing.T) {
	// Two batch chunks (N=64).
	runAndCompare(t, Ours(), Problem{C: 8, K: 64, N: 64, H: 4, W: 4}, gpu.RTX2070())
}

func TestCuDNNLikeKernelMatchesDirect(t *testing.T) {
	runAndCompare(t, CuDNNLike(), Problem{C: 16, K: 32, N: 32, H: 4, W: 4}, gpu.RTX2070())
}

func TestKernelOnV100(t *testing.T) {
	runAndCompare(t, Ours(), Problem{C: 16, K: 64, N: 32, H: 4, W: 4}, gpu.V100())
}

func TestNoP2RVariantMatchesDirect(t *testing.T) {
	cfg := Ours()
	cfg.UseP2R = false
	runAndCompare(t, cfg, Problem{C: 16, K: 64, N: 32, H: 4, W: 4}, gpu.RTX2070())
}

func TestYieldAndSpacingVariantsMatchDirect(t *testing.T) {
	for _, cfg := range []Config{
		{BK: 64, YieldEvery: 7, LDGGap: 2, STSGap: 2, UseP2R: true},
		{BK: 64, YieldEvery: 8, LDGGap: 4, STSGap: 4, UseP2R: true},
	} {
		runAndCompare(t, cfg, smallProblem(64), gpu.RTX2070())
	}
}

func TestOursOccupancyMatchesTable7(t *testing.T) {
	k, err := Generate(Ours(), smallProblem(64), false)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumRegs != 253 {
		t.Fatalf("regs = %d, want 253 (Table 7)", k.NumRegs)
	}
	if k.SmemBytes != 48*1024 {
		t.Fatalf("smem = %d, want 48KB (Table 7)", k.SmemBytes)
	}
	ck, err := Generate(CuDNNLike(), smallProblem(32), false)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumRegs != 126 {
		t.Fatalf("cuDNN-like regs = %d, want 126 (Table 7)", ck.NumRegs)
	}
	occV, err := gpu.V100().OccupancyFor(256, ck.NumRegs, ck.SmemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if occV.BlocksPerSM != 2 {
		t.Fatalf("cuDNN-like on V100: %d blocks/SM, want 2 (Section 7.1)", occV.BlocksPerSM)
	}
	occT, err := gpu.RTX2070().OccupancyFor(256, ck.NumRegs, ck.SmemBytes)
	if err != nil {
		t.Fatal(err)
	}
	if occT.BlocksPerSM != 1 {
		t.Fatalf("cuDNN-like on RTX2070: %d blocks/SM, want 1", occT.BlocksPerSM)
	}
}

func TestMainLoopOnlySampling(t *testing.T) {
	p := Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	res, err := RunConvWith(gpu.RTX2070(), Ours(), p, ConvOpts{SampleBlocks: 1, MainLoopOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != nil {
		t.Fatal("sampled run should not produce output")
	}
	if res.Main.FFMAs == 0 || res.Main.Cycles == 0 {
		t.Fatal("sampled run should report timing")
	}
	// Per block: 256 threads x 1024 FFMAs x C/8 iterations / 32 lanes,
	// summed over the sampled SM instances.
	wantFFMA := int64(256/32*1024*(p.C/8)) * int64(res.Main.SimBlocks)
	if res.Main.FFMAs != wantFFMA {
		t.Fatalf("FFMAs = %d, want %d", res.Main.FFMAs, wantFFMA)
	}
}
