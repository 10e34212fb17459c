package model

import (
	"math"
	"testing"

	"repro/internal/gpu"
)

// ResNet 3x3 layer shapes (paper Table 1) at batch 32.
func conv2(n int) Shape { return Shape{C: 64, K: 64, H: 56, W: 56, N: n} }
func conv3(n int) Shape { return Shape{C: 128, K: 128, H: 28, W: 28, N: n} }
func conv4(n int) Shape { return Shape{C: 256, K: 256, H: 14, W: 14, N: n} }
func conv5(n int) Shape { return Shape{C: 512, K: 512, H: 7, W: 7, N: n} }

func mb(b int64) float64 { return float64(b) / (1 << 20) }

func TestWorkspaceGEMMMatchesPaperExactly(t *testing.T) {
	// Figure 14, GEMM column: 220.5 MB for Conv2N32, scaling linearly
	// with N; 110.2 for Conv3N32... (paper reports MiB).
	cases := []struct {
		s    Shape
		want float64
	}{
		{conv2(32), 220.5}, {conv2(64), 441.0}, {conv2(96), 661.5}, {conv2(128), 882.0},
		{conv3(32), 110.2}, {conv4(32), 55.1}, {conv5(32), 27.6},
	}
	for _, c := range cases {
		got := mb(WorkspaceBytes(AlgoGEMM, c.s))
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("GEMM workspace %+v = %.1f MB, want %.1f", c.s, got, c.want)
		}
	}
}

func TestWorkspaceWinogradNonfusedMatchesPaper(t *testing.T) {
	// Figure 14, WINOGRAD_NONFUSED column (MiB).
	cases := []struct {
		s    Shape
		want float64
	}{
		{conv2(32), 110.8}, {conv2(64), 221.1}, {conv2(128), 441.6},
		{conv3(32), 57.4}, {conv4(32), 45.0}, {conv5(32), 54.0},
	}
	for _, c := range cases {
		got := mb(WorkspaceBytes(AlgoWinogradNonfused, c.s))
		if math.Abs(got-c.want)/c.want > 0.02 {
			t.Errorf("nonfused workspace %+v = %.1f MB, want %.1f", c.s, got, c.want)
		}
	}
}

func TestWorkspaceImplicitIsZero(t *testing.T) {
	if WorkspaceBytes(AlgoImplicitGEMM, conv2(32)) != 0 ||
		WorkspaceBytes(AlgoImplicitPrecompGEMM, conv2(32)) != 0 {
		t.Fatal("implicit algorithms need no workspace (Figure 14)")
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 63: 64, 64: 64, 65: 128}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestWorkspaceFFTShape(t *testing.T) {
	// The FFT variants' exact cuDNN numbers are internal; check shape:
	// FFT grows with N and is largest for Conv5 relative to its FLOPs;
	// FFT_TILING explodes on Conv5 (paper: 1224 MB at N=32).
	if WorkspaceBytes(AlgoFFT, conv2(64)) <= WorkspaceBytes(AlgoFFT, conv2(32)) {
		t.Fatal("FFT workspace must grow with N")
	}
	c5 := mb(WorkspaceBytes(AlgoFFTTiling, conv5(32)))
	c2 := mb(WorkspaceBytes(AlgoFFTTiling, conv2(32)))
	if c5 < 3*c2 {
		t.Fatalf("FFT_TILING on Conv5 (%0.f MB) should dwarf Conv2 (%0.f MB): the 7x7 image still pays 32x32 tiles", c5, c2)
	}
}

func TestOursWorkspaceMatchesPaperSection73(t *testing.T) {
	// "0.25MB for Conv2, 1MB for Conv3, 4MB for Conv4, 16MB for Conv5".
	for _, c := range []struct {
		s    Shape
		want float64
	}{
		{conv2(32), 0.25}, {conv3(32), 1}, {conv4(32), 4}, {conv5(32), 16},
	} {
		if got := mb(OursWorkspaceBytes(c.s)); math.Abs(got-c.want) > 0.01 {
			t.Errorf("ours workspace = %v MB, want %v", got, c.want)
		}
	}
}

func TestBreakEvenNearPaperValues(t *testing.T) {
	// Section 8.1: K=129 on V100, K=127 on RTX2070 (the exact value
	// depends on the clock the peak is quoted at; the band is what
	// matters).
	kv := BreakEvenK(conv4(32), gpu.V100(), 1024)
	if kv < 115 || kv > 140 {
		t.Fatalf("V100 break-even K = %d, want ~129", kv)
	}
	kt := BreakEvenK(conv4(32), gpu.RTX2070(), 1024)
	if kt < 110 || kt > 140 {
		t.Fatalf("RTX2070 break-even K = %d, want ~127", kt)
	}
}

func TestBreakEvenDirections(t *testing.T) {
	// Below the break-even K the fused model wins; above it, non-fused.
	dev := gpu.V100()
	lo := conv4(32)
	lo.K = 64
	if FusedSeconds(lo, dev) >= NonfusedSeconds(lo, dev) {
		t.Fatal("fused should win at K=64 (paper: Conv2/Conv3 class)")
	}
	hi := conv4(32)
	hi.K = 512
	if NonfusedSeconds(hi, dev) >= FusedSeconds(hi, dev) {
		t.Fatal("non-fused should win at K=512 (paper: Conv5 class)")
	}
}

func TestRooflineMatchesPaperFigure2(t *testing.T) {
	pts := Roofline(gpu.V100())
	byName := map[string]RooflinePoint{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	g32 := byName["batched GEMM (bk=32)"]
	g64 := byName["batched GEMM (bk=64)"]
	if math.Abs(g32.OpsPerByte-8) > 1e-9 {
		t.Fatalf("bk=32 intensity = %v, want 8 (Section 3.3)", g32.OpsPerByte)
	}
	if math.Abs(g64.OpsPerByte-10.67) > 0.01 {
		t.Fatalf("bk=64 intensity = %v, want 10.67 (Section 3.3)", g64.OpsPerByte)
	}
	rel := (g64.OpsPerByte - g32.OpsPerByte) / g32.OpsPerByte
	if math.Abs(rel-0.33) > 0.01 {
		t.Fatalf("intensity gain = %v, want +33%%", rel)
	}
	for _, name := range []string{"ITF", "FTF", "OTF"} {
		if !byName[name].MemoryBound {
			t.Fatalf("%s must be memory-bound (Figure 2)", name)
		}
	}
	if byName["direct convolution (bk=64)"].OpsPerByte <= g64.OpsPerByte {
		t.Fatal("direct convolution should sit right of the bk=64 GEMM point")
	}
}

func TestSecondsOrderingsMatchFigure12Qualitatively(t *testing.T) {
	dev := gpu.RTX2070()
	for _, s := range []Shape{conv2(32), conv3(64), conv4(128)} {
		tGemm := Seconds(AlgoGEMM, s, dev)
		tPre := Seconds(AlgoImplicitPrecompGEMM, s, dev)
		tImp := Seconds(AlgoImplicitGEMM, s, dev)
		if tPre >= tImp {
			t.Fatalf("%+v: precomputed implicit GEMM must beat plain implicit", s)
		}
		if tPre >= tGemm {
			t.Fatalf("%+v: implicit precomp must beat explicit im2col GEMM", s)
		}
	}
	// FFT is weakest on Conv2 (large spatial, few channels): Figure 12
	// column 1 shows its biggest losses there.
	r2 := Seconds(AlgoFFT, conv2(32), dev) / Seconds(AlgoImplicitPrecompGEMM, conv2(32), dev)
	r4 := Seconds(AlgoFFT, conv4(32), dev) / Seconds(AlgoImplicitPrecompGEMM, conv4(32), dev)
	if r2 <= r4 {
		t.Fatalf("FFT should be relatively worse on Conv2 (%v) than Conv4 (%v)", r2, r4)
	}
	// Non-fused Winograd beats fused-model time at Conv5's K=512.
	if Seconds(AlgoWinogradNonfused, conv5(32), dev) >= FusedSeconds(conv5(32), dev) {
		t.Fatal("non-fused F(4x4) should win at K=512 (paper Section 7.3 obs. 6)")
	}
}

func TestAlgosListStable(t *testing.T) {
	if len(Algos()) != 6 {
		t.Fatalf("expected 6 comparison algorithms, got %d", len(Algos()))
	}
}

func TestSecondsSmokeAllAlgorithmsBothDevices(t *testing.T) {
	for _, dev := range []gpu.Device{gpu.V100(), gpu.RTX2070()} {
		for _, a := range Algos() {
			for _, s := range []Shape{conv2(32), conv5(128)} {
				sec := Seconds(a, s, dev)
				if sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
					t.Fatalf("%s on %s %+v: bad time %v", a, dev.Name, s, sec)
				}
			}
		}
	}
}

func TestSecondsPanicsOnUnknownAlgo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Seconds(Algo("NOPE"), conv2(32), gpu.V100())
}

func TestWorkspacePanicsOnUnknownAlgo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WorkspaceBytes(Algo("NOPE"), conv2(32))
}

func TestRooflineComputeBoundClamp(t *testing.T) {
	dev := gpu.V100()
	dev.DRAMBandwidthGBs = 100000 // absurd bandwidth: everything compute-bound
	for _, p := range Roofline(dev) {
		if p.MemoryBound {
			t.Fatalf("%s should be compute-bound at absurd bandwidth", p.Name)
		}
		if p.AttainTFLOP != dev.PeakFP32TFLOPS() {
			t.Fatalf("%s attainable %v, want clamped to peak", p.Name, p.AttainTFLOP)
		}
	}
}

func TestWorkspaceScalesLinearlyWithBatch(t *testing.T) {
	for _, a := range []Algo{AlgoGEMM, AlgoFFT, AlgoFFTTiling} {
		w32 := WorkspaceBytes(a, conv3(32))
		w64 := WorkspaceBytes(a, conv3(64))
		if a == AlgoGEMM {
			// The im2col matrix is exactly batch-proportional.
			if w64 != 2*w32 {
				t.Fatalf("%s workspace N64 = %d, want 2x of %d", a, w64, w32)
			}
			continue
		}
		// The FFT variants carry a batch-independent filter-spectrum term.
		if w64 <= w32 || w64 >= 2*w32 {
			t.Fatalf("%s workspace N64 = %d vs N32 = %d: must grow sublinearly", a, w64, w32)
		}
	}
}

func TestFusedFilterTrafficRatioSeparatesRegimes(t *testing.T) {
	// Conv5N32: 16*512/(32*7*7) ~ 5.2 — the transformed filter dominates
	// the output traffic; Conv2N32: 16*64/(32*56*56) ~ 0.01 — negligible.
	if r := FusedFilterTrafficRatio(conv5(32)); math.Abs(r-16*512.0/(32*7*7)) > 1e-12 || r < 1 {
		t.Fatalf("Conv5N32 ratio = %v, want ~5.2 (>1)", r)
	}
	if r := FusedFilterTrafficRatio(conv2(32)); r > 0.1 {
		t.Fatalf("Conv2N32 ratio = %v, want << 1", r)
	}
	// The ratio falls with batch: at N=128 Conv5 is four times less
	// filter-bound than at N=32.
	if FusedFilterTrafficRatio(conv5(128)) >= FusedFilterTrafficRatio(conv5(32)) {
		t.Fatal("filter-traffic ratio must fall with batch")
	}
}

func TestDRAMBoundClassification(t *testing.T) {
	for _, dev := range []gpu.Device{gpu.RTX2070(), gpu.V100()} {
		for n := 32; n <= 128; n += 32 {
			if !DRAMBound(conv5(n), dev) {
				t.Errorf("%s: Conv5 N=%d should classify DRAM-bound", dev.Name, n)
			}
			if DRAMBound(conv2(n), dev) {
				t.Errorf("%s: Conv2 N=%d should classify compute-bound", dev.Name, n)
			}
			if DRAMBound(conv3(n), dev) {
				t.Errorf("%s: Conv3 N=%d should classify compute-bound", dev.Name, n)
			}
		}
	}
}
