package gpu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cubin"
	"repro/internal/turingas"
)

func assemble(t *testing.T, src string) *cubin.Kernel {
	t.Helper()
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return k
}

const saxpySrc = `
.kernel saxpy
.params 16
--:-:0:-:1  S2R R0, SR_TID.X;
--:-:1:-:1  S2R R1, SR_CTAID.X;
--:-:-:Y:6  MOV R2, c[0x0][0x4];
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
`

func TestSaxpyFunctional(t *testing.T) {
	k := assemble(t, saxpySrc)
	s := NewSim(RTX2070())
	s.HazardCheck = true
	const n = 100
	x := s.Alloc(4 * 128)
	y := s.Alloc(4 * 128)
	xs := make([]float32, 128)
	ys := make([]float32, 128)
	for i := range xs {
		xs[i] = float32(i)
		ys[i] = float32(2 * i)
	}
	s.WriteF32(x.Addr, xs)
	s.WriteF32(y.Addr, ys)
	const a = float32(0.5)
	m, err := s.Launch(k, LaunchOpts{
		Grid: 4, Block: 32,
		Params: []uint32{x.Addr, y.Addr, f32ToBits(a), n},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := s.ReadF32(y.Addr, 128)
	for i := 0; i < 128; i++ {
		want := ys[i]
		if i < n {
			want = a*xs[i] + ys[i]
		}
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
	if len(m.HazardViolations) != 0 {
		t.Fatalf("hazards: %v", m.HazardViolations)
	}
	if m.Cycles <= 0 || m.FFMAs != 4 || m.LDGCount != 8 || m.STGCount != 4 {
		t.Fatalf("metrics: cycles=%d ffma=%d ldg=%d stg=%d", m.Cycles, m.FFMAs, m.LDGCount, m.STGCount)
	}
}

const reverseSrc = `
.kernel rev
.smem 128
.params 8
--:-:0:-:1  S2R R0, SR_TID.X;
--:-:-:Y:6  MOV R1, c[0x0][0x160];
01:-:-:Y:6  SHF.L R2, R0, 0x2;
--:-:-:Y:6  IADD3 R3, R1, R2, RZ;
--:-:0:-:2  LDG R4, [R3];
01:1:-:-:2  STS [R2], R4;
02:-:-:Y:5  BAR.SYNC;
--:-:-:Y:6  MOV R5, 0x7c;
--:-:-:Y:6  IMAD R6, R2, 0xffffffff, R5;
--:-:2:-:2  LDS R7, [R6];
--:-:-:Y:6  MOV R8, c[0x0][0x164];
--:-:-:Y:6  IADD3 R9, R8, R2, RZ;
04:3:-:-:2  STG [R9], R7;
--:-:-:Y:5  EXIT;
.endkernel
`

func TestSharedMemoryReverseWithBarrier(t *testing.T) {
	k := assemble(t, reverseSrc)
	s := NewSim(V100())
	s.HazardCheck = true
	in := s.Alloc(128)
	out := s.Alloc(128)
	src := make([]float32, 32)
	for i := range src {
		src[i] = float32(i + 1)
	}
	s.WriteF32(in.Addr, src)
	m, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{in.Addr, out.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	got := s.ReadF32(out.Addr, 32)
	for i := 0; i < 32; i++ {
		if got[i] != src[31-i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], src[31-i])
		}
	}
	if len(m.HazardViolations) != 0 {
		t.Fatalf("hazards: %v", m.HazardViolations)
	}
}

const loopSrc = `
.kernel loop
.params 4
--:-:-:Y:1  MOV R0, 0x0;
--:-:-:Y:1  MOV R1, 0x0;
top:
--:-:-:Y:4  IADD3 R0, R0, R1, RZ;
--:-:-:Y:4  IADD3 R1, R1, 0x1, RZ;
--:-:-:Y:4  ISETP.LT P0, R1, 0xa;
--:-:-:Y:5  @P0 BRA top;
--:-:0:-:1  S2R R2, SR_TID.X;
--:-:-:Y:6  MOV R3, c[0x0][0x160];
01:-:-:Y:6  SHF.L R4, R2, 0x2;
--:-:-:Y:6  IADD3 R5, R3, R4, RZ;
--:3:-:-:2  STG [R5], R0;
--:-:-:Y:5  EXIT;
.endkernel
`

func TestBackwardBranchLoop(t *testing.T) {
	k := assemble(t, loopSrc)
	s := NewSim(RTX2070())
	out := s.Alloc(4 * 32)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{out.Addr}}); err != nil {
		t.Fatal(err)
	}
	got := s.ReadU32(out.Addr, 32)
	for i, v := range got {
		if v != 45 { // sum 0..9
			t.Fatalf("out[%d] = %d, want 45", i, v)
		}
	}
}

const p2rSrc = `
.kernel p2r
.params 4
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  ISETP.LT P0, R0, 0x10;
--:-:-:Y:6  ISETP.GE P1, R0, 0x8;
--:-:-:Y:6  P2R R1, 0x3;
--:-:-:Y:6  ISETP.EQ P0, R0, 0x63;
--:-:-:Y:6  ISETP.EQ P1, R0, 0x63;
--:-:-:Y:6  R2P R1, 0x3;
--:-:-:Y:6  P2R R2, 0x3;
--:-:-:Y:6  MOV R3, c[0x0][0x160];
--:-:-:Y:6  SHF.L R4, R0, 0x2;
--:-:-:Y:6  IADD3 R5, R3, R4, RZ;
--:3:-:-:2  STG [R5], R2;
--:-:-:Y:5  EXIT;
.endkernel
`

func TestP2RRoundtripThroughRegister(t *testing.T) {
	// Pack P0/P1, destroy them, unpack, repack: the paper's register-
	// saving trick (Section 3.5) must preserve predicate state.
	k := assemble(t, p2rSrc)
	s := NewSim(RTX2070())
	out := s.Alloc(4 * 32)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{out.Addr}}); err != nil {
		t.Fatal(err)
	}
	got := s.ReadU32(out.Addr, 32)
	for tid := 0; tid < 32; tid++ {
		want := uint32(0)
		if tid < 16 {
			want |= 1
		}
		if tid >= 8 {
			want |= 2
		}
		if got[tid] != want {
			t.Fatalf("tid %d: packed preds = %#x, want %#x", tid, got[tid], want)
		}
	}
}

func TestDivergentBranchRejected(t *testing.T) {
	src := `
.kernel div
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  ISETP.LT P0, R0, 0x10;
--:-:-:Y:5  @P0 BRA skip;
--:-:-:Y:1  MOV R1, 0x1;
skip:
--:-:-:Y:5  EXIT;
.endkernel
`
	k := assemble(t, src)
	s := NewSim(RTX2070())
	_, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32})
	if err == nil || !strings.Contains(err.Error(), "divergent") {
		t.Fatalf("err = %v", err)
	}
}

func TestHazardCheckerFlagsMissingWait(t *testing.T) {
	src := `
.kernel racy
.params 8
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:0:-:2  LDG R4, [R2];
--:-:-:Y:4  FFMA R5, R4, R4, RZ;
--:-:-:Y:5  EXIT;
.endkernel
`
	k := assemble(t, src)
	s := NewSim(RTX2070())
	s.HazardCheck = true
	buf := s.Alloc(128)
	m, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.HazardViolations) == 0 {
		t.Fatal("expected a hazard violation for FFMA reading an un-waited LDG result")
	}
	if !strings.Contains(m.HazardViolations[0], "R4") {
		t.Fatalf("violation should name R4: %v", m.HazardViolations[0])
	}
}

func TestHazardCheckerAcceptsProperWait(t *testing.T) {
	src := `
.kernel clean
.params 8
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:0:-:2  LDG R4, [R2];
01:-:-:Y:4  FFMA R5, R4, R4, RZ;
--:-:-:Y:5  EXIT;
.endkernel
`
	k := assemble(t, src)
	s := NewSim(RTX2070())
	s.HazardCheck = true
	buf := s.Alloc(128)
	m, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.HazardViolations) != 0 {
		t.Fatalf("unexpected hazards: %v", m.HazardViolations)
	}
}

func TestSmemOutOfBoundsRejected(t *testing.T) {
	src := `
.kernel oob
.smem 64
--:-:-:Y:1  MOV R0, 0x100;
--:1:-:-:2  STS [R0], R0;
--:-:-:Y:5  EXIT;
.endkernel
`
	k := assemble(t, src)
	s := NewSim(RTX2070())
	_, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v", err)
	}
}

// ffmaKernel builds a straight-line kernel of n independent FFMAs with a
// chosen yield strategy ("natural": always set; "everyN": cleared every N).
func ffmaKernel(t *testing.T, n int, clearEvery int) *cubin.Kernel {
	var b strings.Builder
	b.WriteString(".kernel f\n.regs 32\n")
	for i := 0; i < n; i++ {
		y := "Y"
		if clearEvery > 0 && i%clearEvery == clearEvery-1 {
			y = "-"
		}
		// Rotate over a few accumulators so FFMAs are independent;
		// mixed-parity sources (R1 odd, R2 even) avoid bank conflicts.
		d := 8 + i%8
		b.WriteString("--:-:-:" + y + ":1  FFMA R" + intToStr(d) + ", R1, R2, R" + intToStr(d) + ";\n")
	}
	b.WriteString("--:-:-:Y:5  EXIT;\n.endkernel\n")
	return assemble(t, b.String())
}

func intToStr(i int) string {
	if i == 0 {
		return "0"
	}
	var digits []byte
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	return string(digits)
}

func TestYieldStrategyTiming(t *testing.T) {
	// Two warps of independent FFMAs on one scheduler. With the yield bit
	// always set ("Natural", paper Section 6.1) the scheduler stays on
	// one warp; clearing it every 7 instructions (cuDNN's strategy)
	// forces switches that each cost one cycle and kill the reuse cache.
	run := func(clearEvery int) *Metrics {
		k := ffmaKernel(t, 512, clearEvery)
		s := NewSim(RTX2070())
		// 256 threads = 8 warps = 2 per scheduler.
		m, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 256, OneSM: true})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	natural := run(0)
	cudnn := run(7)
	if natural.SwitchCount >= cudnn.SwitchCount {
		t.Fatalf("switches: natural %d, cudnn %d", natural.SwitchCount, cudnn.SwitchCount)
	}
	if natural.Cycles >= cudnn.Cycles {
		t.Fatalf("natural yield must be faster: %d vs %d cycles", natural.Cycles, cudnn.Cycles)
	}
	speedup := float64(cudnn.Cycles) / float64(natural.Cycles)
	if speedup < 1.02 || speedup > 1.4 {
		t.Fatalf("yield speedup %.3f outside the plausible band", speedup)
	}
}

func TestRegisterBankConflictModel(t *testing.T) {
	// All-odd sources conflict (paper footnote 6); a reuse-served
	// operand removes the third read and the conflict.
	conflict := assemble(t, `
.kernel c
.regs 16
--:-:-:Y:1  FFMA R2, R1, R3, R5;
--:-:-:Y:1  FFMA R2, R1, R3, R5;
--:-:-:Y:5  EXIT;
.endkernel
`)
	s := NewSim(RTX2070())
	m, err := s.Launch(conflict, LaunchOpts{Grid: 1, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if m.RegBankConflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", m.RegBankConflicts)
	}

	reused := assemble(t, `
.kernel r
.regs 16
--:-:-:Y:1  FFMA R2, R1, R3.reuse, R5;
--:-:-:Y:1  FFMA R2, R1, R3, R5;
--:-:-:Y:5  EXIT;
.endkernel
`)
	s2 := NewSim(RTX2070())
	m2, err := s2.Launch(reused, LaunchOpts{Grid: 1, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	// First FFMA still conflicts (reuse latches for the NEXT one);
	// second is served from the cache.
	if m2.RegBankConflicts != 1 {
		t.Fatalf("conflicts with reuse = %d, want 1", m2.RegBankConflicts)
	}

	mixed := assemble(t, `
.kernel m
.regs 16
--:-:-:Y:1  FFMA R2, R1, R4, R5;
--:-:-:Y:5  EXIT;
.endkernel
`)
	s3 := NewSim(RTX2070())
	m3, err := s3.Launch(mixed, LaunchOpts{Grid: 1, Block: 32})
	if err != nil {
		t.Fatal(err)
	}
	if m3.RegBankConflicts != 0 {
		t.Fatalf("mixed-parity conflicts = %d, want 0", m3.RegBankConflicts)
	}
}

func TestSmemServiceConflictModel(t *testing.T) {
	// 32-bit access, all lanes hitting distinct banks: 1 cycle.
	var req memRequest
	req.width = 4
	for l := 0; l < 32; l++ {
		req.addrs[l] = uint32(l * 4)
		req.active[l] = true
	}
	if c, conf := smemService(&req); c != 1 || conf != 0 {
		t.Fatalf("coalesced 32-bit: cycles=%d conf=%d", c, conf)
	}
	// All lanes hitting bank 0 with distinct words: 32-way conflict.
	for l := 0; l < 32; l++ {
		req.addrs[l] = uint32(l * 128)
	}
	if c, conf := smemService(&req); c != 32 || conf != 31 {
		t.Fatalf("32-way conflict: cycles=%d conf=%d", c, conf)
	}
	// Broadcast (all lanes same address): 1 cycle.
	for l := 0; l < 32; l++ {
		req.addrs[l] = 64
	}
	if c, conf := smemService(&req); c != 1 || conf != 0 {
		t.Fatalf("broadcast: cycles=%d conf=%d", c, conf)
	}
	// 128-bit, lanes in each 8-lane phase covering all banks: 4 cycles.
	req.width = 16
	for l := 0; l < 32; l++ {
		req.addrs[l] = uint32((l % 8) * 16)
	}
	if c, conf := smemService(&req); c != 4 || conf != 0 {
		t.Fatalf("ideal 128-bit: cycles=%d conf=%d", c, conf)
	}
	// 128-bit, two lanes in one phase hitting the same banks with
	// different words: conflicts.
	for l := 0; l < 32; l++ {
		req.addrs[l] = uint32((l % 8) / 2 * 16) // pairs share an address
	}
	req.addrs[1] = 512 // same banks as addrs[0]=0, different word
	if _, conf := smemService(&req); conf == 0 {
		t.Fatal("expected a conflict for same-bank different-word in one phase")
	}
}

func TestLDGSpacingBackPressure(t *testing.T) {
	// A kernel with LDGs packed back-to-back must see more MIO stalls
	// than the same loads spread out with FFMAs between them.
	build := func(gap int) *cubin.Kernel {
		var b strings.Builder
		b.WriteString(".kernel l\n.regs 128\n.params 8\n--:-:-:Y:6  MOV R2, c[0x0][0x160];\n")
		for i := 0; i < 24; i++ {
			b.WriteString("--:-:" + intToStr(i%6) + ":-:1  LDG.128 R" + intToStr(8+4*i) + ", [R2+" + hex(i*512) + "];\n")
			for j := 0; j < gap; j++ {
				b.WriteString("--:-:-:Y:1  FFMA R4, R1, R2, R4;\n")
			}
		}
		b.WriteString("3f:-:-:Y:5  EXIT;\n.endkernel\n")
		return assemble(t, b.String())
	}
	run := func(gap int) *Metrics {
		s := NewSim(RTX2070())
		buf := s.Alloc(16 * 128 * 32)
		k := build(gap)
		m, err := s.Launch(k, LaunchOpts{Grid: 8, Block: 256, OneSM: true})
		if err != nil {
			t.Fatal(err)
		}
		_ = buf
		return m
	}
	packed := run(0)
	spread := run(8)
	pStall := packed.MIOStallCycles + packed.MSHRStallCycles
	sStall := spread.MIOStallCycles + spread.MSHRStallCycles
	if pStall <= sStall {
		t.Fatalf("memory-queue stalls: packed %d, spread %d — packing LDGs should back-pressure",
			pStall, sStall)
	}
}

func hex(v int) string {
	const digits = "0123456789abcdef"
	if v == 0 {
		return "0x0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{digits[v%16]}, b...)
		v /= 16
	}
	return "0x" + string(b)
}

func TestMultiBlockMultiSMFunctional(t *testing.T) {
	// The saxpy kernel over many blocks exercises block scheduling and
	// wave replacement (grid >> SMs * blocks/SM).
	k := assemble(t, saxpySrc)
	s := NewSim(Device{
		Name: "tiny", SMs: 2, ClockGHz: 1, SchedulersPerSM: 4,
		MaxWarpsPerSM: 8, RegFileRegs: 4096, RegAllocUnit: 256,
		MaxSmemPerSM: 64 * 1024, MaxBlocksPerSM: 2,
		L2LatencyCycles: 50, DRAMLatencyCycles: 100,
		L2SizeBytes: 32 * 1024, DRAMBandwidthGBs: 100,
		MIOQueueDepth: 8, SmemBytesPerCycle: 128, LDGServiceCycles: 4,
	})
	const n = 32 * 20
	x := s.Alloc(4 * n)
	y := s.Alloc(4 * n)
	xs := make([]float32, n)
	ys := make([]float32, n)
	for i := range xs {
		xs[i] = float32(i % 7)
		ys[i] = 1
	}
	s.WriteF32(x.Addr, xs)
	s.WriteF32(y.Addr, ys)
	m, err := s.Launch(k, LaunchOpts{Grid: 20, Block: 32, Params: []uint32{x.Addr, y.Addr, f32ToBits(2), n}})
	if err != nil {
		t.Fatal(err)
	}
	if m.SimBlocks != 20 || m.SimSMs != 2 {
		t.Fatalf("blocks=%d sms=%d", m.SimBlocks, m.SimSMs)
	}
	got := s.ReadF32(y.Addr, n)
	for i := range got {
		want := 2*xs[i] + 1
		if got[i] != want {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestMaxBlocksSampling(t *testing.T) {
	k := assemble(t, saxpySrc)
	s := NewSim(RTX2070())
	x := s.Alloc(4 * 320)
	y := s.Alloc(4 * 320)
	m, err := s.Launch(k, LaunchOpts{Grid: 10, Block: 32, MaxBlocks: 3, OneSM: true,
		Params: []uint32{x.Addr, y.Addr, f32ToBits(1), 320}})
	if err != nil {
		t.Fatal(err)
	}
	if m.SimBlocks != 3 || m.GridBlocks != 10 {
		t.Fatalf("sim=%d grid=%d", m.SimBlocks, m.GridBlocks)
	}
}

func TestMetricsTFLOPSAndSOL(t *testing.T) {
	k := ffmaKernel(t, 2048, 0)
	s := NewSim(RTX2070())
	m, err := s.Launch(k, LaunchOpts{Grid: 8, Block: 256, OneSM: true})
	if err != nil {
		t.Fatal(err)
	}
	sol := m.SOL()
	if sol <= 0.5 || sol > 1.0 {
		t.Fatalf("pure-FFMA kernel SOL = %v, want near 1", sol)
	}
	// Achieved TFLOPS: the launch's FLOPs over its simulated time.
	tf := m.FLOPs() / (float64(m.Cycles) / (RTX2070().ClockGHz * 1e9)) / 1e12
	// One SM of RTX2070 peaks at 7.46/36 = 0.207 TFLOPS.
	perSM := RTX2070().PeakFP32TFLOPS() / 36
	if tf <= 0 || tf > perSM*1.01 {
		t.Fatalf("TFLOPS = %v, per-SM peak %v", tf, perSM)
	}
	if math.Abs(tf/perSM-sol) > 0.15 {
		t.Fatalf("TFLOPS fraction %.3f should track SOL %.3f", tf/perSM, sol)
	}
}

func TestLaunchValidation(t *testing.T) {
	k := assemble(t, ".kernel k\n--:-:-:Y:5  EXIT;\n.endkernel\n")
	s := NewSim(RTX2070())
	if _, err := s.Launch(k, LaunchOpts{Grid: 0, Block: 32}); err == nil {
		t.Fatal("grid 0 should fail")
	}
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 33}); err == nil {
		t.Fatal("block 33 should fail")
	}
}

func TestAllocAlignmentAndRoundtrip(t *testing.T) {
	s := NewSim(RTX2070())
	a := s.Alloc(100)
	b := s.Alloc(4)
	if a.Addr%256 != 0 || b.Addr%256 != 0 {
		t.Fatal("allocations must be 256-byte aligned")
	}
	if b.Addr <= a.Addr {
		t.Fatal("allocations must not overlap")
	}
	s.WriteU32(a.Addr, []uint32{1, 2, 3})
	got := s.ReadU32(a.Addr, 3)
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("roundtrip = %v", got)
	}
	s.Fill(b.Addr, 1, 2.5)
	if v := s.ReadF32(b.Addr, 1)[0]; v != 2.5 {
		t.Fatalf("fill = %v", v)
	}
}

// stallSrc gives TestStallReason one instruction of each issue class: an
// FFMA (FP pipe), an IADD3 (ALU pipe), an LDS and an LDG (MIO), and a MOV
// whose wait mask names dependency barrier 0.
const stallSrc = `
.kernel stall
--:-:-:Y:1  FFMA R0, R1, R2, R3;
--:-:-:Y:1  IADD3 R4, R5, R6, RZ;
--:-:0:-:1  LDS R7, [R8];
--:-:1:-:1  LDG R9, [R10];
01:-:-:Y:1  MOV R11, R12;
--:-:-:Y:5  EXIT;
.endkernel
`

// TestStallReason pins the scheduler's one eligibility rule on a
// hand-built SM instance, and that tryIssue charges a memory-queue block
// to the counter of the queue that is actually full.
func TestStallReason(t *testing.T) {
	prog, err := decodeProgram(assemble(t, stallSrc))
	if err != nil {
		t.Fatal(err)
	}
	dev := RTX2070()
	const now = 100
	fill := func(q *[]int64, n int, at int64) {
		*q = (*q)[:0]
		for i := 0; i < n; i++ {
			*q = append(*q, at)
		}
	}
	cases := []struct {
		name  string
		pc    int
		setup func(sm *smSim, sc *scheduler, w *warp)
		want  StallReason
	}{
		{"bar-sync", 0, func(sm *smSim, sc *scheduler, w *warp) {
			w.atBar = true
			w.nextIssue = math.MaxInt64
		}, StallBarSync},
		{"ctrl", 0, func(sm *smSim, sc *scheduler, w *warp) { w.nextIssue = now + 3 }, StallCtrl},
		{"bar-dep", 4, func(sm *smSim, sc *scheduler, w *warp) { w.barInc(0) }, StallBarDep},
		{"bar-dep-other-barrier", 4, func(sm *smSim, sc *scheduler, w *warp) { w.barInc(1) }, StallNone},
		{"mio-full-lds", 2, func(sm *smSim, sc *scheduler, w *warp) {
			fill(&sm.dispQ, dev.MIOQueueDepth, now+10)
		}, StallMIOFull},
		{"mio-full-ldg-mshrs-free", 3, func(sm *smSim, sc *scheduler, w *warp) {
			fill(&sm.dispQ, dev.MIOQueueDepth, now+10)
		}, StallMIOFull},
		{"mshr-full", 3, func(sm *smSim, sc *scheduler, w *warp) {
			fill(&sm.globQ, dev.MSHRs, now+10)
		}, StallMSHRFull},
		{"mshr-full-lds-unaffected", 2, func(sm *smSim, sc *scheduler, w *warp) {
			fill(&sm.globQ, dev.MSHRs, now+10)
		}, StallNone},
		{"expired-queue-entries", 3, func(sm *smSim, sc *scheduler, w *warp) {
			fill(&sm.dispQ, dev.MIOQueueDepth, now)
			fill(&sm.globQ, dev.MSHRs, now)
		}, StallNone},
		{"pipe-fp", 0, func(sm *smSim, sc *scheduler, w *warp) { sc.fpBusyUntil = now + 1 }, StallPipe},
		{"pipe-int", 1, func(sm *smSim, sc *scheduler, w *warp) { sc.intBusyUntil = now + 1 }, StallPipe},
		{"none", 0, func(sm *smSim, sc *scheduler, w *warp) {}, StallNone},
	}
	sm := &smSim{dev: &dev, nodes: prog.nodes}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// reset rebuilds the case's machine state, so the tryIssue
			// pass sees exactly what stallReason saw.
			reset := func() (*scheduler, *warp) {
				sm.now = now
				sm.m = Metrics{}
				sm.dispQ, sm.globQ = sm.dispQ[:0], sm.globQ[:0]
				w := &warp{pc: tc.pc, nextIssue: now}
				sc := &scheduler{warps: []*warp{w}}
				tc.setup(sm, sc, w)
				return sc, w
			}
			sc, w := reset()
			if got := sm.stallReason(sc, w); got != tc.want {
				t.Fatalf("stallReason = %v, want %v", got, tc.want)
			}
			if tc.want == StallNone {
				return
			}
			sc, _ = reset()
			issued, err := sm.tryIssue(sc)
			if err != nil || issued {
				t.Fatalf("tryIssue = %v, %v; want no issue", issued, err)
			}
			var wantMIO, wantMSHR int64
			switch tc.want {
			case StallMIOFull:
				wantMIO = 1
			case StallMSHRFull:
				wantMSHR = 1
			}
			if sm.m.MIOStallCycles != wantMIO || sm.m.MSHRStallCycles != wantMSHR {
				t.Fatalf("MIOStallCycles=%d MSHRStallCycles=%d, want %d and %d",
					sm.m.MIOStallCycles, sm.m.MSHRStallCycles, wantMIO, wantMSHR)
			}
		})
	}
}
