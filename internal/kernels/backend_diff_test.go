package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cubin"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/tensor"
	"repro/internal/turingas"
)

// The threaded backend and the sharded launch path must be bit-identical
// to the switch oracle running sequentially: same Metrics, same memory
// contents, same per-pc profiler attribution, at any worker count. These
// tests enforce that on the conv kernels across the sweep's knobs and on
// randomized control-code mutations of small hand-written kernels.

// diffVariants is the backend x workers matrix every differential case
// runs; the first entry is the reference everything else must match. A
// sharded launch through RunConvWith runs on GOMAXPROCS workers, so the
// conv cases set that to the variant's count; a bare gpu.Sim takes it as
// Sim.Workers.
var diffVariants = []struct {
	name    string
	backend gpu.Backend
	workers int
}{
	{"switch-w1", gpu.BackendSwitch, 1},
	{"switch-w4", gpu.BackendSwitch, 4},
	{"threaded-w1", gpu.BackendThreaded, 1},
	{"threaded-w4", gpu.BackendThreaded, 4},
}

// diffProfile asserts two launch profiles agree exactly, reporting the
// first few diverging pcs rather than dumping whole structs.
func diffProfile(t *testing.T, tag string, want, got *gpu.LaunchProfile) {
	t.Helper()
	if want.Cycles != got.Cycles || want.SchedCycles != got.SchedCycles ||
		want.IssuedSlots != got.IssuedSlots || want.SlotStalls != got.SlotStalls {
		t.Errorf("%s: launch totals diverge: cycles %d/%d sched %d/%d issued %d/%d stalls %v/%v",
			tag, want.Cycles, got.Cycles, want.SchedCycles, got.SchedCycles,
			want.IssuedSlots, got.IssuedSlots, want.SlotStalls, got.SlotStalls)
	}
	if len(want.PerInst) != len(got.PerInst) {
		t.Fatalf("%s: %d profiled pcs, want %d", tag, len(got.PerInst), len(want.PerInst))
	}
	bad := 0
	for pc := range want.PerInst {
		if !reflect.DeepEqual(want.PerInst[pc], got.PerInst[pc]) {
			t.Errorf("%s: pc %d: %+v, want %+v", tag, pc, got.PerInst[pc], want.PerInst[pc])
			if bad++; bad == 3 {
				t.Fatalf("%s: (further pc divergences elided)", tag)
			}
		}
	}
	if !reflect.DeepEqual(want.Warps, got.Warps) {
		t.Errorf("%s: per-warp attribution diverges", tag)
	}
	if !reflect.DeepEqual(want.LDGSpans, got.LDGSpans) || want.DroppedSpans != got.DroppedSpans {
		t.Errorf("%s: LDG spans diverge", tag)
	}
}

// diffMetrics asserts two launch Metrics agree exactly.
func diffMetrics(t *testing.T, tag string, want, got *gpu.Metrics) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: metrics diverge:\n got %+v\nwant %+v", tag, *got, *want)
	}
}

// TestBackendDifferentialSweep runs full functional convolutions across
// the sweep's scheduling knobs on every backend x workers variant and
// requires bit-identical metrics, outputs, and profiles. The knob cases
// run on the reference RTX2070; the default-config case additionally
// runs on every other registered device, so a new device file is held
// to the same backend-equivalence contract the day it lands.
func TestBackendDifferentialSweep(t *testing.T) {
	type sweepCase struct {
		name     string
		dev      gpu.Device
		cfg      Config
		p        Problem
		mainOnly bool
	}
	rtx := gpu.RTX2070()
	cases := []sweepCase{
		{"bk64", rtx, Config{BK: 64, UseP2R: true}, Problem{C: 16, K: 64, N: 32, H: 8, W: 8}, false},
		{"bk32", rtx, Config{BK: 32, UseP2R: true, DeclaredSmem: 48 * 1024}, Problem{C: 16, K: 64, N: 32, H: 8, W: 8}, false},
		{"yield4-mainloop", rtx, Config{BK: 64, YieldEvery: 4, LDGGap: 4, STSGap: 3, UseP2R: true}, Problem{C: 16, K: 64, N: 32, H: 4, W: 4}, true},
	}
	for _, name := range gpu.DeviceNames() {
		if name == "rtx2070" {
			continue // already the reference device of the knob cases
		}
		dev, err := gpu.DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sweepCase{"bk64-" + name, dev,
			Config{BK: 64, UseP2R: true}, Problem{C: 16, K: 64, N: 32, H: 8, W: 8}, false})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: tc.p.N, C: tc.p.C, H: tc.p.H, W: tc.p.W})
			in.FillRandom(7)
			flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: tc.p.K, C: tc.p.C, R: 3, S: 3})
			flt.FillRandom(8)

			type outcome struct {
				res      *ConvResult
				launches []*gpu.LaunchProfile
			}
			var ref outcome
			for _, v := range diffVariants {
				prof := gpu.NewProfiler()
				procs := runtime.GOMAXPROCS(v.workers)
				res, err := RunConvWith(tc.dev, tc.cfg, tc.p, ConvOpts{
					In: in, Flt: flt, MainLoopOnly: tc.mainOnly, Prof: prof, Backend: v.backend,
				})
				runtime.GOMAXPROCS(procs)
				if err != nil {
					t.Fatalf("%s: %v", v.name, err)
				}
				if len(prof.Launches) != 2 {
					t.Fatalf("%s: %d launch profiles, want 2", v.name, len(prof.Launches))
				}
				if v.name == diffVariants[0].name {
					ref = outcome{res, prof.Launches}
					continue
				}
				diffMetrics(t, v.name+"/ftf", ref.res.FTF, res.FTF)
				diffMetrics(t, v.name+"/main", ref.res.Main, res.Main)
				diffProfile(t, v.name+"/ftf", ref.launches[0], prof.Launches[0])
				diffProfile(t, v.name+"/main", ref.launches[1], prof.Launches[1])
				if tc.mainOnly {
					continue
				}
				for i, x := range ref.res.Output.Data {
					if res.Output.Data[i] != x {
						t.Fatalf("%s: output[%d] = %v, want %v", v.name, i, res.Output.Data[i], x)
					}
				}
			}
		})
	}
}

// TestBackendDifferentialSampled covers the sequential sampled launch
// paths (hot one-SM and wave sampling), where only the backend varies.
func TestBackendDifferentialSampled(t *testing.T) {
	dev := gpu.RTX2070()
	cfg := Config{BK: 64, UseP2R: true}
	p := Problem{C: 16, K: 64, N: 32, H: 8, W: 8}
	for _, hot := range []bool{false, true} {
		name := map[bool]string{true: "hot", false: "waves"}[hot]
		t.Run(name, func(t *testing.T) {
			var ref *ConvResult
			var refProf []*gpu.LaunchProfile
			for _, be := range []gpu.Backend{gpu.BackendSwitch, gpu.BackendThreaded} {
				prof := gpu.NewProfiler()
				res, err := RunConvWith(dev, cfg, p, ConvOpts{
					SampleBlocks: 8, Hot: hot, Prof: prof,
					Backend: be,
				})
				if err != nil {
					t.Fatalf("%s: %v", be, err)
				}
				if ref == nil {
					ref, refProf = res, prof.Launches
					continue
				}
				diffMetrics(t, be.String()+"/ftf", ref.FTF, res.FTF)
				diffMetrics(t, be.String()+"/main", ref.Main, res.Main)
				for i := range refProf {
					diffProfile(t, be.String(), refProf[i], prof.Launches[i])
				}
			}
		})
	}
}

// Corner-case kernels for randomized control-code mutation: predicated
// global traffic, a shared-memory exchange through a block barrier, a
// backward-branch loop, and an FFMA chain with operand reuse. Mutations
// rewrite only Stall/Yield/Reuse — the fields that steer the scheduler
// but can never deadlock it — so every mutant is a legal program both
// backends must time identically. Every global store address includes a
// CTAID term: blocks run on concurrent workers under Sharded over one
// shared memory backing, so overlapping cross-block stores — already UB
// on real hardware — would be a literal data race here.
var diffCorners = []struct {
	name string
	src  string
	smem int // guaranteed STS/LDS range, bytes
}{
	{"predicated-saxpy", `
.kernel dsaxpy
.params 16
--:-:0:-:1  S2R R0, SR_TID.X;
--:-:1:-:1  S2R R1, SR_CTAID.X;
--:-:-:Y:6  MOV R2, 0x20;
03:-:-:Y:6  IMAD R3, R1, R2, R0;
--:-:-:Y:6  SHF.L R4, R3, 0x2;
--:-:-:Y:6  MOV R5, c[0x0][0x160];
--:-:-:Y:6  MOV R6, c[0x0][0x164];
--:-:-:Y:6  IADD3 R5, R5, R4, RZ;
--:-:-:Y:6  IADD3 R6, R6, R4, RZ;
--:-:-:Y:6  ISETP.LT P0, R3, c[0x0][0x16c];
--:-:0:-:2  @P0 LDG R8, [R5];
--:-:1:-:2  @P0 LDG R9, [R6];
--:-:-:Y:6  MOV R10, c[0x0][0x168];
03:-:-:Y:4  FFMA R11, R8, R10, R9;
--:3:-:-:2  @P0 STG [R6], R11;
--:-:-:Y:5  EXIT;
.endkernel
`, 0},
	{"smem-exchange", `
.kernel xchg
.smem 256
.params 16
--:-:0:-:1  S2R R0, SR_TID.X;
--:-:1:-:1  S2R R11, SR_CTAID.X;
--:-:-:Y:6  MOV R1, c[0x0][0x160];
01:-:-:Y:6  SHF.L R2, R0, 0x2;
--:-:-:Y:6  MOV R12, 0x80;
02:-:-:Y:6  IMAD R2, R11, R12, R2;
--:-:-:Y:6  IADD3 R3, R1, R2, RZ;
--:-:0:-:2  LDG R4, [R3];
--:-:-:Y:6  SHF.L R5, R0, 0x3;
01:1:-:-:2  STS [R5], R4;
02:-:-:Y:5  BAR.SYNC;
--:-:-:Y:6  MOV R6, 0xf8;
--:-:-:Y:6  IMAD R7, R5, 0xffffffff, R6;
--:-:2:-:2  LDS R8, [R7];
--:-:-:Y:6  MOV R9, c[0x0][0x164];
--:-:-:Y:6  IADD3 R10, R9, R2, RZ;
04:3:-:-:2  STG [R10], R8;
--:-:-:Y:5  EXIT;
.endkernel
`, 256},
	{"loop-ffma-reuse", `
.kernel lfma
.params 16
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  MOV R1, 0x0;
--:-:-:Y:6  MOV R2, 0x3f800000;
--:-:-:Y:6  MOV R3, 0x40000000;
--:-:-:Y:6  MOV R4, 0x0;
top:
--:-:-:Y:4  FFMA R4, R2, R3, R4;
--:-:-:Y:4  FFMA R4, R2.reuse, R3.reuse, R4;
--:-:-:Y:6  IADD3 R1, R1, 0x1, RZ;
--:-:-:Y:6  ISETP.LT P0, R1, 0x8;
--:-:-:Y:5  @P0 BRA top;
--:-:2:-:1  S2R R12, SR_CTAID.X;
--:-:-:Y:6  MOV R5, c[0x0][0x160];
--:-:-:Y:6  SHF.L R6, R0, 0x2;
--:-:-:Y:6  MOV R8, 0x80;
04:-:-:Y:6  IMAD R6, R12, R8, R6;
--:-:-:Y:6  IADD3 R7, R5, R6, RZ;
--:3:-:-:2  STG [R7], R4;
--:-:-:Y:5  EXIT;
.endkernel
`, 0},
}

// mutateCtrl returns a fresh kernel (new cache identity) whose control
// codes have Stall/Yield/Reuse randomly rewritten under the seed.
// Dependency barriers and wait masks are never touched: those encode
// correctness, not scheduling, and mutating them could deadlock.
func mutateCtrl(t *testing.T, k *cubin.Kernel, seed int64) *cubin.Kernel {
	t.Helper()
	insts, err := k.Decode()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range insts {
		c := &insts[i].Ctrl
		switch rng.Intn(3) {
		case 0:
			c.Stall = uint8(1 + rng.Intn(7))
		case 1:
			c.Yield = rng.Intn(2) == 0
		case 2:
			c.Reuse = uint8(rng.Intn(8))
		}
	}
	nk := *k
	nk.Code = sass.EncodeAll(insts)
	return &nk
}

// TestBackendDifferentialRandomKernels launches control-code mutants of
// the corner kernels, Sharded, on the full variant matrix and requires
// bit-identical metrics, memory, and profiles.
func TestBackendDifferentialRandomKernels(t *testing.T) {
	const grid, block, words = 8, 32, 8 * 32
	for _, corner := range diffCorners {
		base, err := turingas.AssembleKernel(corner.src)
		if err != nil {
			t.Fatalf("%s: %v", corner.name, err)
		}
		for seed := int64(1); seed <= 4; seed++ {
			k := mutateCtrl(t, base, seed)
			t.Run(corner.name, func(t *testing.T) {
				type outcome struct {
					m    gpu.Metrics
					mem  []float32
					prof *gpu.LaunchProfile
				}
				var ref outcome
				for _, v := range diffVariants {
					s := gpu.NewSim(gpu.RTX2070())
					s.Backend = v.backend
					s.Workers = v.workers
					prof := gpu.NewProfiler()
					s.Prof = prof
					a := s.Alloc(4 * words)
					b := s.Alloc(4 * words)
					init := make([]uint32, words)
					for i := range init {
						init[i] = 0x3f000000 + uint32(i)
					}
					s.WriteU32(a.Addr, init)
					s.WriteU32(b.Addr, init)
					m, err := s.Launch(k, gpu.LaunchOpts{
						Grid: grid, Block: block,
						Params:  []uint32{a.Addr, b.Addr, 0x3f000000, words},
						Sharded: true,
					})
					if err != nil {
						t.Fatalf("%s seed %d: %v", v.name, seed, err)
					}
					got := outcome{m: *m, mem: s.ReadF32(b.Addr, words), prof: prof.Launches[0]}
					if v.name == diffVariants[0].name {
						ref = got
						continue
					}
					tag := v.name
					diffMetrics(t, tag, &ref.m, &got.m)
					for i := range ref.mem {
						if g, w := math.Float32bits(got.mem[i]), math.Float32bits(ref.mem[i]); g != w {
							t.Fatalf("%s seed %d: mem[%d] = %#x, want %#x", tag, seed, i, g, w)
						}
					}
					diffProfile(t, tag, ref.prof, got.prof)
				}
			})
		}
	}
}
