package kernels

import (
	"fmt"

	"repro/internal/cubin"
)

// GemmProblem is a 16-batched C_b = A_b^T x B_b product — exactly the
// shape of the Winograd EWMM step (paper Section 2.3: "batched GEMM is a
// subproblem of Winograd convolution; all the techniques we have
// developed in Section 4.3 can be applied to batched GEMM").
//
// Layouts (row-major):
//
//	A: (Batch, K, M)  — the reduction dimension outermost, so panel
//	                    loads walk contiguous M (the transformed-filter
//	                    layout's role)
//	B: (Batch, K, N)
//	C: (Batch, M, N)
type GemmProblem struct {
	Batch, M, N, K int
}

// Validate enforces the blocking constraints (M%64, N%32, K%8, Batch%16).
func (p GemmProblem) Validate() error {
	switch {
	case p.Batch <= 0 || p.Batch%16 != 0:
		return fmt.Errorf("kernels: gemm Batch=%d must be a positive multiple of 16", p.Batch)
	case p.M <= 0 || p.M%64 != 0:
		return fmt.Errorf("kernels: gemm M=%d must be a positive multiple of 64", p.M)
	case p.N <= 0 || p.N%32 != 0:
		return fmt.Errorf("kernels: gemm N=%d must be a positive multiple of 32", p.N)
	case p.K <= 0 || p.K%8 != 0:
		return fmt.Errorf("kernels: gemm K=%d must be a positive multiple of 8", p.K)
	}
	return nil
}

// GemmGrid returns the launch grid: x = N/32, y = M/64, z = Batch/16.
func GemmGrid(p GemmProblem) (x, y, z int) {
	return p.N / 32, p.M / 64, p.Batch / 16
}

// GenerateBatchedGEMM emits the 16-batched 64x32xK GEMM kernel: the
// Winograd main loop's EWMM machinery (Figure-3 lane arrangement,
// Figure-4 register allocation with .reuse scheduling, software-pipelined
// staging, double-buffered fragments) without the transform steps. The
// same scheduling knobs (yield strategy, LDG spacing) apply.
//
// Params: +0x0 A, +0x4 B, +0x8 C.
func GenerateBatchedGEMM(cfg Config, p GemmProblem) (*cubin.Kernel, error) {
	cfg = cfg.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &gemmGen{cfg: cfg, p: p, e: pooledEmitter(cfg.YieldEvery)}
	g.generate()
	k, err := g.e.assemble()
	if err != nil {
		return nil, fmt.Errorf("kernels: generated GEMM failed to assemble: %w", err)
	}
	return k, nil
}

type gemmGen struct {
	cfg Config
	p   GemmProblem
	e   *emitter
}

// Register map mirrors the bk=64 Winograd layout:
//
//	R0-63, R96-159  accumulators (two batch positions)
//	R64-95          current fragments, R160-191 next fragments
//	R192-223        A staging (8 x vec4), R224-239 B staging (16 scalars)
//	R240+           addresses and the loop counter
const (
	gRA    = 240 // A global pointer
	gRB    = 241 // B global pointer
	gRC    = 242 // C global pointer (this thread's tile base)
	gRAsw  = 243 // A smem write base
	gRBsw  = 244 // B smem write base
	gRAr   = 245 // A smem read base (fragment loads)
	gRBr   = 246 // B smem read base
	gRIter = 247
)

const (
	gSmemB = 0      // (16, 8, 32) floats
	gSmemA = 0x4000 // (16, 8, 64) floats
)

func (g *gemmGen) generate() {
	e, p := g.e, g.p
	mk4 := p.M * 4 // A row stride in bytes
	nk4 := p.N * 4
	aBatch4 := p.K * p.M * 4
	bBatch4 := p.K * p.N * 4
	cBatch4 := p.M * p.N * 4

	e.raw(".kernel batched_gemm")
	e.raw(".regs 250")
	e.raw(".smem %d", 48*1024)
	e.raw(".params 12")

	// --- prologue ---
	const (
		rTid  = 0
		rCtaX = 1
		rCtaY = 2
		rCtaZ = 3
		rLane = 4
		rWarp = 5
		rT    = 6
		rU    = 7
	)
	e.ins(c0().writeBar(0).st(1), "S2R R%d, SR_TID.X;", rTid)
	e.ins(c0().writeBar(1).st(1), "S2R R%d, SR_CTAID.X;", rCtaX)
	e.ins(c0().writeBar(2).st(1), "S2R R%d, SR_CTAID.Y;", rCtaY)
	e.ins(c0().writeBar(3).st(2), "S2R R%d, SR_CTAID.Z;", rCtaZ)
	e.ins(c0().w(0x1).st(6), "LOP3 R%d, R%d, 0x1f, RZ, 0xc0;", rLane, rTid)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x5;", rWarp, rTid)

	// A staging base: thread t stages vec4 f4 = t + i*256 of the
	// (batch-elem, kc, m) block; same decomposition as the filter path.
	e.ins(c0().w(0x8).st(6), "LOP3 R%d, R%d, 0x7f, RZ, 0xc0;", rT, rTid) // rem = t & 127
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rU, rT)                    // kc_f = rem/16
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rU, rU, mk4)           // kc_f*M4
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x7;", rT, rTid)                  // e0f = t>>7
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rT, aBatch4, rU)  // + e0f*batchStride
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rT, rTid)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rT) // mj*16 bytes
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rU, rU, rT)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaY, 64*4, rU) // + m0*4
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaZ, 16*aBatch4, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x160], RZ;", gRA, rU)

	// B staging base: thread t loads one (kc=warp, n=lane) scalar per
	// batch element.
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rU, rWarp, nk4)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", rT, rLane)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rU, rU, rT)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaX, 32*4, rU) // + n0*4
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaZ, 16*bBatch4, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x164], RZ;", gRB, rU)

	// Shared-memory write bases: A = smemA + t*16; B = smemB + warp*128 + lane*4.
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rTid)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRAsw, rT, gSmemA)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x7;", rT, rWarp)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", rU, rLane)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rT, rT, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRBsw, rT, gSmemB)

	// Fragment read bases (Figure-3 arrangement, as in the main kernel).
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rT, rLane)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x1;", rT, rT)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rT)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0xc;", rU, rWarp)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rT, rT, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRAr, rT, gSmemA)
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0x1, RZ, 0xc0;", rT, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rT)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rU, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rU, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rT, rT, rU)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0xb;", rU, rWarp)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rT, rT, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRBr, rT, gSmemB)

	// C base for the epilogue: C + (ctaZ*16 + 2*warp)*cStride +
	// (m0 + fo1)*N4 + (n0 + io1)*4 — computed later per store via
	// immediates from this base.
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x2, RZ;", rT, rWarp)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x10, R%d;", rU, rCtaZ, rT) // batch = z*16 + 2*warp
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rU, rU, cBatch4)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaY, 64*nk4, rU) // + m0*N4
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rT, rLane)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x1;", rT, rT)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rT, 4*nk4, rU) // + fo1*N4
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0x1, RZ, 0xc0;", rT, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rT)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rU, rU, rT)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rT, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rT, rT) // (lane>>4)*8 floats
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rU, rU, rT)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rU, rCtaX, 32*4, rU)
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x168], RZ;", gRC, rU)

	e.ins(c0().st(6), "MOV R%d, 0x%x;", gRIter, p.K/8)
	for _, base := range []int{0, 96} {
		for i := 0; i < 64; i++ {
			e.zero(c0().st(1), base+i)
		}
	}

	// Iteration 0 staging + store + preload.
	g.queueLoads(0, mk4, nk4, aBatch4, bBatch4)
	e.flush(chLDG)
	g.store(true)
	g.preload()

	e.raw("top:")
	e.ins(c0().st(6), "ISETP.EQ P6, R%d, 0x1;", gRIter)
	e.ins(c0().st(2), "IADD3 R%d, R%d, -1, RZ;", gRIter, gRIter)
	g.queueLoads(g.cfg.LDGGap, mk4, nk4, aBatch4, bBatch4)
	for step := 0; step < 8; step++ {
		g.step(step)
	}
	e.flush(chLDG)
	e.ins(c0().st(5), "@P6 BRA done;")
	g.store(false)
	g.preload()
	e.ins(c0().st(5), "BRA top;")

	e.raw("done:")
	// Epilogue: 2 positions x 8 cols x 2 vec4 runs -> 32 STG.128. The
	// accumulator rows are already vec4 groups (rows 0-3 = io1 run,
	// 4-7 = io2 run), so each run stores directly; acc registers for a
	// run are consecutive (col*8+row).
	for pos := 0; pos < 2; pos++ {
		accBase := []int{0, 96}[pos]
		for col := 0; col < 8; col++ {
			mOff := col * nk4 // col j -> m = fo1 + j (cols 0..3), fo2 half +32
			if col >= 4 {
				mOff = (32-4)*nk4 + col*nk4
			}
			for run := 0; run < 2; run++ {
				imm := pos*cBatch4 + mOff + run*64 // io2 - io1 = 16 floats
				e.ins(c0().st(1).readBar(2), "STG.128 [R%d+0x%x], R%d;",
					gRC, uint32(imm), accBase+col*8+run*4)
			}
		}
	}
	e.ins(c0().w(0x4).st(5), "EXIT;")
	e.raw(".endkernel")
}

// queueLoads enqueues one iteration's A/B staging loads.
func (g *gemmGen) queueLoads(gap, mk4, nk4, aBatch4, bBatch4 int) {
	e := g.e
	for i := 0; i < 8; i++ { // A: 8 vec4 per thread, e advances by 2
		c := c0().st(1).writeBar(3)
		if i == 0 {
			c = c.w(0x20)
		}
		e.queue(chLDG, gap, c, "LDG.128 R%d, [R%d+0x%x];", 192+4*i, gRA, uint32(i*2*aBatch4))
	}
	for i := 0; i < 16; i++ { // B: one scalar per batch element
		c := c0().st(1).writeBar(2)
		if i == 0 {
			c = c.w(0x10)
		}
		e.queue(chLDG, gap, c, "LDG R%d, [R%d+0x%x];", 224+i, gRB, uint32(i*bBatch4))
	}
	e.queue(chLDG, gap, c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRA, gRA, 8*mk4)
	e.queue(chLDG, 0, c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", gRB, gRB, 8*nk4)
}

// store moves the staged panels to shared memory between barriers.
func (g *gemmGen) store(first bool) {
	e := g.e
	if !first {
		e.ins(c0().st(1), "BAR.SYNC;")
	}
	for i := 0; i < 8; i++ {
		c := c0().st(1).readBar(5)
		if i == 0 {
			c = c.w(0x8)
		}
		e.queue(chSTS, g.cfg.STSGap, c, "STS.128 [R%d+0x%x], R%d;", gRAsw, uint32(i*0x1000), 192+4*i)
	}
	for i := 0; i < 16; i++ {
		c := c0().st(1).readBar(4)
		if i == 0 {
			c = c.w(0x4)
		}
		e.queue(chSTS, g.cfg.STSGap, c, "STS [R%d+0x%x], R%d;", gRBsw, uint32(i*0x400), 224+i)
	}
	e.flush(chSTS)
	e.ins(c0().st(1), "BAR.SYNC;")
}

func (g *gemmGen) stepLDS(step int) {
	e := g.e
	bank := step % 2
	inBase := [2][]int{{64, 72}, {160, 168}}
	fltBase := [2][]int{{80, 88}, {176, 184}}
	for pos := 0; pos < 2; pos++ {
		fb, ib := fltBase[bank][pos], inBase[bank][pos]
		e.queue(chLDS, 15, c0().st(1).writeBar(bank), "LDS.128 R%d, [R%d+0x%x];", fb, gRAr, uint32(step*0x100+pos*0x800))
		e.queue(chLDS, 15, c0().st(1).writeBar(bank), "LDS.128 R%d, [R%d+0x%x];", fb+4, gRAr, uint32(step*0x100+pos*0x800+0x80))
		e.queue(chLDS, 15, c0().st(1).writeBar(bank), "LDS.128 R%d, [R%d+0x%x];", ib, gRBr, uint32(step*0x80+pos*0x400))
		e.queue(chLDS, 15, c0().st(1).writeBar(bank), "LDS.128 R%d, [R%d+0x%x];", ib+4, gRBr, uint32(step*0x80+pos*0x400+0x40))
	}
}

func (g *gemmGen) preload() {
	g.stepLDS(0)
	g.e.flush(chLDS)
}

func (g *gemmGen) step(step int) {
	e := g.e
	bank := step % 2
	if step < 7 {
		g.stepLDS(step + 1)
	}
	inBase := [2][]int{{64, 72}, {160, 168}}
	fltBase := [2][]int{{80, 88}, {176, 184}}
	first := true
	for pos := 0; pos < 2; pos++ {
		acc := []int{0, 96}[pos]
		in := inBase[bank][pos]
		flt := fltBase[bank][pos]
		for col := 0; col < 8; col++ {
			for idx, row := range rowOrder(col) {
				c := c0().st(1)
				if first {
					c = c.w(uint8(1 << uint(bank)))
					first = false
				}
				reuse := ""
				if idx < 7 {
					reuse = ".reuse"
				}
				e.flt(c, "FFMA R%d, R%d, R%d%s, R%d;", acc+col*8+row, in+row, flt+col, reuse, acc+col*8+row)
			}
		}
	}
}
