package sasscheck_test

import (
	"fmt"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sasscheck"
	"repro/internal/turingas"
)

// hazardPCs launches k with the simulator's dynamic hazard checker and
// returns the instruction index of every violation it observes
// (violations render as "cycle C block B warp W pc P (OP): msg").
func hazardPCs(t *testing.T, launch func(sim *gpu.Sim) (*gpu.Metrics, error)) map[int]string {
	t.Helper()
	sim := gpu.NewSim(gpu.RTX2070())
	sim.HazardCheck = true
	m, err := launch(sim)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	pcs := map[int]string{}
	for _, v := range m.HazardViolations {
		var cycle, block, warp, pc int
		if _, err := fmt.Sscanf(v, "cycle %d block %d warp %d pc %d", &cycle, &block, &warp, &pc); err != nil {
			t.Fatalf("unparseable violation %q: %v", v, err)
		}
		pcs[pc] = v
	}
	return pcs
}

// brokenKernels is the executable hazard corpus: each kernel runs to
// completion on the simulator (hazards are reported, not fatal) and
// trips one dynamic hazard class. The differential property under test:
// every pc the dynamic checker flags must also carry a static
// diagnostic — the static analysis covers all paths, the dynamic one
// only the schedule that actually ran, so static ⊇ dynamic.
var brokenKernels = []struct{ name, src string }{
	{"stall-too-small", `.kernel b
.regs 32
.smem 4096
.params 0
--:-:-:Y:2 S2R R0, SR_TID.X;
--:-:-:Y:5 IADD3 R1, R0, 0x10, RZ;
--:-:-:Y:5 EXIT;
.endkernel`},
	{"read-before-barrier", `.kernel b
.regs 32
.smem 4096
.params 0
--:-:0:Y:6 S2R R0, SR_TID.X;
01:-:-:Y:6 SHF.L R1, R0, 0x2;
--:-:1:Y:1 LDS R2, [R1];
--:-:-:Y:4 FADD R3, R2, R2;
02:-:-:Y:5 EXIT;
.endkernel`},
	{"overwrite-before-barrier", `.kernel b
.regs 32
.smem 4096
.params 0
--:-:0:Y:6 S2R R0, SR_TID.X;
01:-:-:Y:6 SHF.L R1, R0, 0x2;
--:-:1:Y:1 LDS R2, [R1];
--:-:-:Y:1 MOV R2, RZ;
02:-:-:Y:5 EXIT;
.endkernel`},
	{"load-without-barrier", `.kernel b
.regs 32
.smem 4096
.params 0
--:-:0:Y:6 S2R R0, SR_TID.X;
01:-:-:Y:6 SHF.L R1, R0, 0x2;
--:-:-:Y:1 LDS R2, [R1];
--:-:-:Y:5 EXIT;
.endkernel`},
}

// TestDifferentialBroken asserts the soundness direction on the broken
// corpus: a static diagnostic exists at every pc the simulator reports
// dynamically.
func TestDifferentialBroken(t *testing.T) {
	for _, bk := range brokenKernels {
		t.Run(bk.name, func(t *testing.T) {
			k, err := turingas.AssembleKernel(bk.src)
			if err != nil {
				t.Fatal(err)
			}
			pcs := hazardPCs(t, func(sim *gpu.Sim) (*gpu.Metrics, error) {
				return sim.Launch(k, gpu.LaunchOpts{Grid: 1, Block: 32})
			})
			if len(pcs) == 0 {
				t.Fatal("corpus kernel tripped no dynamic hazards; it no longer tests anything")
			}
			ds, err := sasscheck.CheckKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			staticAt := map[int]bool{}
			for _, d := range ds {
				staticAt[d.PC] = true
			}
			for pc, v := range pcs {
				if !staticAt[pc] {
					t.Errorf("dynamic hazard with no static diagnostic at pc %d: %s\nstatic: %v", pc, v, ds)
				}
			}
		})
	}
}

// TestDifferentialCleanKernels runs the generated kernels end to end
// with the dynamic hazard checker enabled: zero violations, matching
// the zero static diagnostics the lint tests assert. RunConvWith fails on
// any hazard, so success is the assertion.
func TestDifferentialCleanKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full kernels")
	}
	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		if _, err := kernels.RunConvWith(gpu.RTX2070(), cfg, p, kernels.ConvOpts{SampleBlocks: 2, HazardCheck: true}); err != nil {
			t.Errorf("bk%d: %v", cfg.BK, err)
		}
	}
}
