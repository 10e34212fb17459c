package kernels

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/tensor"
)

// cpuBatchedGEMM computes C_b = A_b^T x B_b with A (B,K,M), B (B,K,N).
func cpuBatchedGEMM(a, b []float32, p GemmProblem) []float32 {
	c := make([]float32, p.Batch*p.M*p.N)
	for bt := 0; bt < p.Batch; bt++ {
		for m := 0; m < p.M; m++ {
			for n := 0; n < p.N; n++ {
				var acc float32
				for k := 0; k < p.K; k++ {
					acc += a[(bt*p.K+k)*p.M+m] * b[(bt*p.K+k)*p.N+n]
				}
				c[(bt*p.M+m)*p.N+n] = acc
			}
		}
	}
	return c
}

func runGemm(t *testing.T, p GemmProblem, cfg Config) *gpu.Metrics {
	t.Helper()
	k, err := GenerateBatchedGEMM(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	sim := gpu.NewSim(gpu.RTX2070())
	sim.HazardCheck = true
	rng := tensor.NewRNG(11)
	a := make([]float32, p.Batch*p.K*p.M)
	b := make([]float32, p.Batch*p.K*p.N)
	for i := range a {
		a[i] = rng.Float32()
	}
	for i := range b {
		b[i] = rng.Float32()
	}
	aBuf := sim.Alloc(len(a)*4 + 8*p.M*4*16) // slack for the dead prefetch
	bBuf := sim.Alloc(len(b)*4 + 8*p.N*4*16)
	cBuf := sim.Alloc(p.Batch * p.M * p.N * 4)
	sim.WriteF32(aBuf.Addr, a)
	sim.WriteF32(bBuf.Addr, b)

	gx, gy, gz := GemmGrid(p)
	m, err := sim.Launch(k, gpu.LaunchOpts{
		Grid: gx, GridY: gy, GridZ: gz, Block: 256,
		Params: []uint32{aBuf.Addr, bBuf.Addr, cBuf.Addr},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.HazardViolations) != 0 {
		t.Fatalf("hazards: %v", m.HazardViolations)
	}
	got := sim.ReadF32(cBuf.Addr, p.Batch*p.M*p.N)
	want := cpuBatchedGEMM(a, b, p)
	for i := range want {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		scale := float32(1)
		if w := want[i]; w > scale {
			scale = w
		} else if -w > scale {
			scale = -w
		}
		if d > 1e-4*scale {
			t.Fatalf("C[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return m
}

func TestBatchedGEMMCorrectTiny(t *testing.T) {
	runGemm(t, GemmProblem{Batch: 16, M: 64, N: 32, K: 8}, Ours())
}

func TestBatchedGEMMMultiIteration(t *testing.T) {
	runGemm(t, GemmProblem{Batch: 16, M: 64, N: 32, K: 32}, Ours())
}

func TestBatchedGEMMMultiBlock(t *testing.T) {
	runGemm(t, GemmProblem{Batch: 32, M: 128, N: 64, K: 16}, Ours())
}

func TestBatchedGEMMValidation(t *testing.T) {
	bad := []GemmProblem{
		{Batch: 8, M: 64, N: 32, K: 8},
		{Batch: 16, M: 60, N: 32, K: 8},
		{Batch: 16, M: 64, N: 30, K: 8},
		{Batch: 16, M: 64, N: 32, K: 7},
	}
	for _, p := range bad {
		if _, err := GenerateBatchedGEMM(Ours(), p); err == nil {
			t.Fatalf("%+v should be rejected", p)
		}
	}
}

// TestGEMMDensityExceedsWinograd supports the paper's Section 2.2/2.3
// observation that Winograd's main loop has lower computational intensity
// than plain batched GEMM: for the same FFMA count, the Winograd kernel
// must issue more non-FFMA instructions (input transform, padding masks,
// the transformed-tile store phase), leaving less room for latency hiding.
func TestGEMMDensityExceedsWinograd(t *testing.T) {
	gm := runGemm(t, GemmProblem{Batch: 16, M: 64, N: 32, K: 128}, Ours())

	p := Problem{C: 128, K: 64, N: 32, H: 4, W: 4}
	res, err := RunConvWith(gpu.RTX2070(), Ours(), p, ConvOpts{SampleBlocks: 1, MainLoopOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	wm := res.Main
	gemmDensity := float64(gm.FFMAs) / float64(gm.Issued)
	winoDensity := float64(wm.FFMAs) / float64(wm.Issued)
	if gemmDensity <= winoDensity {
		t.Fatalf("GEMM FFMA density %.3f should exceed Winograd's %.3f", gemmDensity, winoDensity)
	}
}
