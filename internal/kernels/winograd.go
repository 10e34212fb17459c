package kernels

import (
	"fmt"

	"repro/internal/cubin"
)

// layout holds the variant-specific register and shared-memory map.
//
// bk=64 (the paper's kernel, Figure 4 register allocation):
//
//	R0-63    accumulators, position e0        (8 k-cols x 8 n-rows)
//	R96-159  accumulators, position e1
//	R64-95   current fragments  (in e0, in e1, flt e0, flt e1; 8 each)
//	R160-191 next-step fragments (LDS double buffer)
//	R192-223 filter global-load staging (8 x 128-bit)
//	R224-239 input global-load staging (one 4x4 tile)
//	R240-253 addresses, loop counter, padding mask, ITF workspace
//
// bk=32 (cuDNN-like): one position per thread, half the staging.
type layout struct {
	bk        int
	positions int // e-positions per thread

	accBase   []int    // per position
	inBase    [2][]int // [fragment bank][position]
	fltBase   [2][]int
	ldgIn     int
	ldgFilt   int
	filtVecs  int // 128-bit filter loads per thread per iteration
	filtEStep int // e advance between consecutive filter vector loads

	smemIn, smemFilt int // byte offsets
	smemActual       int

	// address/bookkeeping registers
	rIn, rFlt, rIsw, rFsw, rIr, rFr, rIter, rMask int
	rT0, rT1, rT2                                 int

	regs int // declared register count

	srcBytes int // Source's text buffer size: the largest variants measured fit without growing
}

// The two layouts. Every generator shares their register-base slices,
// which are read-only.
var (
	layout64 = layout{
		bk: 64, positions: 2,
		accBase: []int{0, 96},
		inBase:  [2][]int{{64, 72}, {160, 168}},
		fltBase: [2][]int{{80, 88}, {176, 184}},
		ldgIn:   224, ldgFilt: 192, filtVecs: 8, filtEStep: 2,
		smemIn: 0, smemFilt: 0x4000, smemActual: 48 * 1024,
		rIn: 240, rFlt: 241, rIsw: 242, rFsw: 243, rIr: 244, rFr: 245,
		rIter: 246, rMask: 247, rT0: 248, rT1: 249, rT2: 250,
		regs: 253, srcBytes: 96 << 10,
	}
	layout32 = layout{
		bk: 32, positions: 1,
		accBase: []int{0},
		inBase:  [2][]int{{64}, {80}},
		fltBase: [2][]int{{72}, {88}},
		ldgIn:   96, ldgFilt: 112, filtVecs: 4, filtEStep: 4,
		smemIn: 0, smemFilt: 0x4000, smemActual: 32 * 1024,
		rIn: 128, rFlt: 129, rIsw: 130, rFsw: 131, rIr: 132, rFr: 133,
		rIter: 134, rMask: 135, rT0: 136, rT1: 137, rT2: 138,
		regs:     126, // cuDNN's published count governs occupancy (Table 7)
		srcBytes: 64 << 10,
	}
)

func layoutFor(bk int) layout {
	if bk == 64 {
		return layout64
	}
	return layout32
}

// strides bakes the problem's address constants.
type strides struct {
	n4, wn4, hwn4  int
	k4             int
	tilesW         int
	magicM, magicS uint32
}

func newStrides(p Problem) strides {
	m, s := magic(uint32(p.TilesW()))
	return strides{
		n4: p.N * 4, wn4: p.W * p.N * 4, hwn4: p.H * p.W * p.N * 4,
		k4: p.K * 4, tilesW: p.TilesW(), magicM: m, magicS: s,
	}
}

// GridFor returns the launch grid for the main kernel:
// x = N/32 batch chunks, y = spatial tiles, z = K/bk filter blocks.
func GridFor(cfg Config, p Problem) (x, y, z int) {
	cfg = cfg.withDefaults()
	return p.N / 32, p.TilesH() * p.TilesW(), p.K / cfg.BK
}

// generate emits and assembles the fused Winograd kernel; Generate (the
// cached front door in gencache.go) is the entry point callers use. The
// text goes straight to the assembler, so it is emitted into a recycled
// buffer.
func generate(cfg Config, p Problem, mainLoopOnly bool) (*cubin.Kernel, error) {
	g, err := newGen(cfg, p)
	if err != nil {
		return nil, err
	}
	g.e = pooledEmitter(g.cfg.YieldEvery)
	g.generate(mainLoopOnly)
	k, err := g.e.assemble()
	if err != nil {
		return nil, fmt.Errorf("kernels: generated source failed to assemble: %w", err)
	}
	return k, nil
}

// Source returns the generated assembly text: the only form in which a
// kernel reaches the assembler, and what the turingas example prints.
func Source(cfg Config, p Problem, mainLoopOnly bool) (string, error) {
	g, err := newGen(cfg, p)
	if err != nil {
		return "", err
	}
	g.e = newEmitter(g.cfg.YieldEvery, g.lay.srcBytes)
	g.generate(mainLoopOnly)
	return g.e.source(), nil
}

// newGen validates the configuration and problem and lays out their
// kernel; the caller supplies the emitter.
func newGen(cfg Config, p Problem) (gen, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return gen{}, err
	}
	if err := p.Validate(cfg.BK); err != nil {
		return gen{}, err
	}
	return gen{cfg: cfg, p: p, lay: layoutFor(cfg.BK), st: newStrides(p)}, nil
}

type gen struct {
	cfg Config
	p   Problem
	lay layout
	st  strides
	e   *emitter
}

func (g *gen) generate(mainLoopOnly bool) {
	e, lay := g.e, g.lay
	smem := lay.smemActual
	if g.cfg.DeclaredSmem > smem {
		smem = g.cfg.DeclaredSmem
	}
	e.raw(".kernel winograd_bk%d", lay.bk)
	e.raw(".regs %d", lay.regs)
	e.raw(".smem %d", smem)
	e.raw(".params 12")

	g.prologue()

	// Iteration 0: load, transform, store, sync, preload step-0 frags.
	g.queueGlobalLoads(0)
	e.flush(chLDG)
	g.storePhase(true)
	g.preloadStep0()

	e.raw("top:")
	e.ins(c0().st(6), "ISETP.EQ P6, R%d, 0x1;", lay.rIter)
	e.ins(c0().st(2), "IADD3 R%d, R%d, -1, RZ;", lay.rIter, lay.rIter)

	// Main loop body: 8 EWMM steps with woven LDS prefetch and the next
	// iteration's LDG stream.
	g.queueGlobalLoads(g.cfg.LDGGap)
	for step := 0; step < 8; step++ {
		g.emitStep(step)
	}
	e.flush(chLDG)
	e.ins(c0().st(5), "@P6 BRA done;")

	g.storePhase(false)
	g.preloadStep0()
	e.ins(c0().st(5), "BRA top;")

	e.raw("done:")
	if mainLoopOnly {
		e.ins(c0().st(5), "EXIT;")
	} else {
		g.epilogue()
	}
	e.raw(".endkernel")
}

// --- prologue -------------------------------------------------------

// Params: +0x0 input (CHWN), +0x4 transformed filter (C,16,K), +0x8 output (KHWN).
func (g *gen) prologue() {
	e, lay, st, p := g.e, g.lay, g.st, g.p
	// Temporaries below the accumulator region are free until the accs
	// are zeroed at the end of the prologue.
	const (
		rTid  = 0
		rCtaX = 1
		rCtaY = 2
		rCtaZ = 3
		rLane = 4
		rWarp = 5
		rTh   = 6
		rTw   = 7
		rA    = 8
		rB    = 9
		rC    = 10
		rD    = 11
	)
	e.ins(c0().writeBar(0).st(1), "S2R R%d, SR_TID.X;", rTid)
	e.ins(c0().writeBar(1).st(1), "S2R R%d, SR_CTAID.X;", rCtaX)
	e.ins(c0().writeBar(2).st(1), "S2R R%d, SR_CTAID.Y;", rCtaY)
	e.ins(c0().writeBar(3).st(2), "S2R R%d, SR_CTAID.Z;", rCtaZ)

	e.ins(c0().w(0x1).st(6), "LOP3 R%d, R%d, 0x1f, RZ, 0xc0;", rLane, rTid) // lane = tid & 31
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x5;", rWarp, rTid)                  // warp = tid >> 5

	// th = spatial / tilesW, tw = spatial % tilesW (magic or shift).
	if st.magicM == 0 {
		e.ins(c0().w(0x4).st(6), "SHF.R R%d, R%d, 0x%x;", rTh, rCtaY, st.magicS)
	} else {
		e.ins(c0().w(0x4).st(6), "IMAD.HI R%d, R%d, 0x%x, RZ;", rTh, rCtaY, st.magicM)
	}
	e.ins(c0().st(6), "IMAD R%d, R%d, -0x%x, R%d;", rTw, rTh, st.tilesW, rCtaY) // tw = spatial - th*tilesW

	// y0 = 2*th - 1, x0 = 2*tw - 1 (pad = 1).
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x1;", rA, rTh)
	e.ins(c0().st(6), "IADD3 R%d, R%d, -1, RZ;", rA, rA) // y0
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x1;", rB, rTw)
	e.ins(c0().st(6), "IADD3 R%d, R%d, -1, RZ;", rB, rB) // x0

	// Zero-padding mask (paper Section 3.5): bit r*4+s set when input
	// element (y0+r, x0+s) is in bounds. P4/P5 are prologue scratch.
	e.zero(c0().st(6), lay.rMask)
	for r := 0; r < 4; r++ {
		e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", rC, rA, r) // yr
		for s := 0; s < 4; s++ {
			e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", rD, rB, s) // xs
			e.ins(c0().st(6), "ISETP.GE P5, R%d, 0x0;", rC)
			e.ins(c0().st(6), "ISETP.LT P5, R%d, 0x%x, P5;", rC, p.H)
			e.ins(c0().st(6), "ISETP.GE P5, R%d, 0x0, P5;", rD)
			e.ins(c0().st(6), "ISETP.LT P5, R%d, 0x%x, P5;", rD, p.W)
			e.ins(c0().st(6), "@P5 LOP3 R%d, R%d, 0x%x, RZ, 0xfc;", lay.rMask, lay.rMask, 1<<(r*4+s))
		}
	}

	// Input base address: inPtr + ci*HWN4 + y0*WN4 + x0*N4 + (nb+ni)*4,
	// where ci = warp (the channel this thread loads), ni = lane and
	// nb = ctaid.x*32.
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rC, rWarp, st.hwn4)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rC, rA, st.wn4, rC)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rC, rB, st.n4, rC)
	e.ins(c0().w(0x2).st(6), "SHF.L R%d, R%d, 0x5;", rD, rCtaX)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rD, rD, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", rD, rD)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rC, rC, rD)
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x160], RZ;", lay.rIn, rC)

	// Filter base address: thread t loads vec4 f4 = t + i*256 of the
	// (e, ci, k) shared tile block; base covers (ci_f, e0f, kj).
	eSlab := lay.bk * 8 / 4 // vec4 per e-slab: bk*8 floats / 4
	e.ins(c0().w(0x8).st(6), "LOP3 R%d, R%d, 0x%x, RZ, 0xc0;", rC, rTid, eSlab-1)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x%x;", rD, rC, log2(lay.bk/4)) // ci_f = rem / (bk/4)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rD, rD, 16*st.k4)    // ci_f*16*K4
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x%x;", rA, rTid, log2(eSlab))  // e0f = tid / eSlab
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rD, rA, st.k4, rD)  // + e0f*K4
	e.ins(c0().st(6), "LOP3 R%d, R%d, 0x%x, RZ, 0xc0;", rA, rTid, lay.bk/4-1)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rA, rA) // kj*4 bytes = (tid % (bk/4))*16
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rD, rD, rA)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rD, rCtaZ, lay.bk*4, rD) // + k0*4
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x164], RZ;", lay.rFlt, rD)

	// Shared-memory write bases.
	// input: smemIn + ci*128 + ni*4 (layout (16, 8, 32) floats).
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x7;", rC, rWarp)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", rD, rLane)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rC, rC, rD)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rIsw, rC, lay.smemIn)
	// filter: smemFilt + tid*16.
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rC, rTid)
	e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rFsw, rC, lay.smemFilt)

	// Shared-memory read bases (Figure 3 lane arrangement).
	if lay.bk == 64 {
		// fo1 bytes = ((lane & 15) >> 1) * 16; io1 bytes = (lane&1)*16 + (lane>>4)*32.
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rC, rLane)
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x1;", rC, rC)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rC, rC)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0xc;", rD, rWarp) // e0*2048 = warp<<12
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rC, rC, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rFr, rC, lay.smemFilt)

		e.ins(c0().st(6), "LOP3 R%d, R%d, 0x1, RZ, 0xc0;", rC, rLane)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rC, rC)
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rD, rLane)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rD, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rC, rC, rD)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0xb;", rD, rWarp) // e0*1024 = warp<<11
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rC, rC, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rIr, rC, lay.smemIn)
	} else {
		// bk=32: pos = 2*warp + (lane>>4); fo = (lane&3)*32 bytes;
		// io = ((lane&15)>>2)*32 bytes; e stride 1024 both.
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rC, rLane)
		e.ins(c0().st(6), "IMAD R%d, R%d, 0x2, R%d;", rC, rWarp, rC) // pos
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0xa;", rC, rC)            // pos*1024
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0x3, RZ, 0xc0;", rD, rLane)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rD, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rD, rC, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rFr, rD, lay.smemFilt)
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rD, rLane)
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x2;", rD, rD)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rD, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rD, rC, rD)
		e.ins(c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rIr, rD, lay.smemIn)
	}

	e.ins(c0().st(6), "MOV R%d, 0x%x;", lay.rIter, g.p.C/8)

	// Zero the accumulators and the input staging registers (padded
	// elements rely on the staging registers staying zero).
	for _, base := range lay.accBase {
		for i := 0; i < 64; i++ {
			e.zero(c0().st(1), base+i)
		}
	}
	for i := 0; i < 16; i++ {
		e.zero(c0().st(1), lay.ldgIn+i)
	}
}

// --- main loop pieces -------------------------------------------------

// queueGlobalLoads enqueues the next iteration's input and filter LDGs on
// the LDG weave channel (gap 0 = emit immediately, used for iteration 0).
func (g *gen) queueGlobalLoads(gap int) {
	e, lay, st := g.e, g.lay, g.st
	first := true
	for r := 0; r < 4; r++ {
		if g.cfg.UseP2R {
			// Unpack 4 mask bits into P0..P3 (paper Section 3.5).
			e.queue(chLDG, gap, c0().st(5), "SHF.R R%d, R%d, 0x%x;", lay.rT2, lay.rMask, 4*r)
			e.queue(chLDG, 0, c0().st(6), "R2P R%d, 0xf;", lay.rT2)
		}
		for s := 0; s < 4; s++ {
			if !g.cfg.UseP2R {
				// Recompute the predicate from the mask register —
				// the work P2R packing eliminates.
				e.queue(chLDG, gap, c0().st(5), "LOP3 R%d, R%d, 0x%x, RZ, 0xc0;", lay.rT2, lay.rMask, 1<<(r*4+s))
				e.queue(chLDG, 0, c0().st(6), "ISETP.NE P0, R%d, 0x0;", lay.rT2)
			}
			c := c0().st(1).writeBar(2)
			if first {
				c = c.w(0x10) // input staging regs freed by last STS read
				first = false
			}
			pred := sass32Pred(s, g.cfg.UseP2R)
			e.queue(chLDG, gap, c, "%sLDG R%d, [R%d+0x%x];",
				pred, lay.ldgIn+r*4+s, lay.rIn, uint32(r*st.wn4+s*st.n4))
		}
	}
	for i := 0; i < lay.filtVecs; i++ {
		c := c0().st(1).writeBar(3)
		if i == 0 {
			c = c.w(0x20)
		}
		e.queue(chLDG, gap, c, "LDG.128 R%d, [R%d+0x%x];",
			lay.ldgFilt+4*i, lay.rFlt, uint32(i*lay.filtEStep*st.k4))
	}
	// Advance the global pointers for the following iteration.
	e.queue(chLDG, gap, c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rIn, lay.rIn, 8*st.hwn4)
	e.queue(chLDG, 0, c0().st(6), "IADD3 R%d, R%d, 0x%x, RZ;", lay.rFlt, lay.rFlt, 8*16*st.k4)
}

func sass32Pred(s int, p2r bool) string {
	if p2r {
		return [...]string{"@P0 ", "@P1 ", "@P2 ", "@P3 "}[s]
	}
	return "@P0 "
}

// queueStepLDS enqueues the fragment loads for `step` into the bank it
// targets (step parity), spaced through the current step's FFMAs.
func (g *gen) queueStepLDS(step int) {
	e, lay := g.e, g.lay
	bank := step % 2
	bar := bank
	ci := step
	gap := 15
	if lay.bk == 32 {
		gap = 14
	}
	for pos := 0; pos < lay.positions; pos++ {
		if lay.bk == 64 {
			fb, ib := lay.fltBase[bank][pos], lay.inBase[bank][pos]
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", fb, lay.rFr, uint32(ci*0x100+pos*0x800))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", fb+4, lay.rFr, uint32(ci*0x100+pos*0x800+0x80))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", ib, lay.rIr, uint32(ci*0x80+pos*0x400))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", ib+4, lay.rIr, uint32(ci*0x80+pos*0x400+0x40))
		} else {
			fb, ib := lay.fltBase[bank][pos], lay.inBase[bank][pos]
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", fb, lay.rFr, uint32(ci*0x80))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", fb+4, lay.rFr, uint32(ci*0x80+0x10))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", ib, lay.rIr, uint32(ci*0x80))
			e.queue(chLDS, gap, c0().st(1).writeBar(bar), "LDS.128 R%d, [R%d+0x%x];", ib+4, lay.rIr, uint32(ci*0x80+0x10))
		}
	}
}

// preloadStep0 loads the first step's fragments after the smem barrier.
func (g *gen) preloadStep0() {
	g.queueStepLDS(0)
	g.e.flush(chLDS)
}

// emitStep emits one EWMM step: 64 FFMAs per position with the Figure-4
// reuse scheme, the next step's LDS prefetch woven in, and the LDG stream
// continuing at its configured spacing.
func (g *gen) emitStep(step int) {
	e, lay := g.e, g.lay
	bank := step % 2
	if step < 7 {
		g.queueStepLDS(step + 1)
	}
	firstOfStep := true
	for pos := 0; pos < lay.positions; pos++ {
		acc := lay.accBase[pos]
		in := lay.inBase[bank][pos]
		flt := lay.fltBase[bank][pos]
		for col := 0; col < 8; col++ {
			rows := rowOrder(col)
			for idx, row := range rows {
				c := c0().st(1)
				if firstOfStep {
					c = c.w(uint8(1 << uint(bank)))
					firstOfStep = false
				}
				e.ffma(c, acc+col*8+row, in+row, flt+col, idx < 7)
			}
		}
	}
}

// rowOrder implements the paper's bank-conflict-avoiding schedule: the
// first row of each column has opposite parity to the column so the three
// live reads never share a register bank; subsequent rows reuse the
// cached filter operand.
func rowOrder(col int) [8]int {
	if col%2 == 0 {
		return [8]int{1, 0, 3, 2, 5, 4, 7, 6}
	}
	return [8]int{0, 1, 2, 3, 4, 5, 6, 7}
}

// storePhase emits BAR; ITF woven with STS at the configured spacing;
// BAR. In the prologue (first=true) there is no preceding smem use, so
// the leading barrier is skipped.
func (g *gen) storePhase(first bool) {
	e, lay := g.e, g.lay
	if !first {
		e.ins(c0().st(1), "BAR.SYNC;")
	}
	// Queue the filter STS stream (independent of the ITF).
	for i := 0; i < lay.filtVecs; i++ {
		c := c0().st(1).readBar(5)
		if i == 0 {
			c = c.w(0x8) // filter LDG data
		}
		e.queue(chSTS, g.cfg.STSGap, c, "STS.128 [R%d+0x%x], R%d;", lay.rFsw, uint32(i*0x1000), lay.ldgFilt+4*i)
	}

	// ITF: in-place B^T d B on the staged input tile (32 FADDs, paper
	// Section 4.2), with the input STS stream woven behind pass 2.
	d := lay.ldgIn
	firstF := true
	pass := func(stride, count int) {
		for grp := 0; grp < 4; grp++ {
			var r0, r1, r2, r3 int
			if stride == 4 {
				r0, r1, r2, r3 = d+grp, d+4+grp, d+8+grp, d+12+grp
			} else {
				r0, r1, r2, r3 = d+4*grp, d+4*grp+1, d+4*grp+2, d+4*grp+3
			}
			c := c0().st(2)
			if firstF {
				c = c.w(0x4) // input LDG data
				firstF = false
			}
			e.flt(c, "FADD R%d, R%d, -R%d;", lay.rT0, r2, r1)          // t2
			e.flt(c0().st(2), "FADD R%d, R%d, -R%d;", lay.rT1, r1, r3) // t3
			e.flt(c0().st(2), "FADD R%d, R%d, R%d;", r1, r1, r2)       // t1
			e.flt(c0().st(2), "FADD R%d, R%d, -R%d;", r0, r0, r2)      // t0
			e.ins(c0().st(2), "MOV R%d, R%d;", r2, lay.rT0)
			e.ins(c0().st(2), "MOV R%d, R%d;", r3, lay.rT1)
			if stride == 1 && count == 2 {
				// Pass 2 just finalized elements 4*grp..4*grp+3: queue
				// their stores.
				for s := 0; s < 4; s++ {
					e.queue(chSTS, g.cfg.STSGap, c0().st(1).readBar(4),
						"STS [R%d+0x%x], R%d;", lay.rIsw, uint32((4*grp+s)*0x400), d+4*grp+s)
				}
			}
		}
	}
	pass(4, 1) // columns
	pass(1, 2) // rows (finalizes, stores queued)
	e.flush(chSTS)

	// Re-zero the padded staging registers: the in-place ITF left
	// transformed values in them, but the next iteration's predicated
	// LDGs skip padded elements and rely on the registers reading zero
	// (the implicit zero-padding of Section 3.5). The first zeroing MOV
	// waits for the just-issued STSs to have read the registers.
	firstZ := true
	for r := 0; r < 4; r++ {
		if g.cfg.UseP2R {
			e.ins(c0().st(5), "SHF.R R%d, R%d, 0x%x;", lay.rT2, lay.rMask, 4*r)
			e.ins(c0().st(6), "R2P R%d, 0xf;", lay.rT2)
		}
		for s := 0; s < 4; s++ {
			if !g.cfg.UseP2R {
				e.ins(c0().st(5), "LOP3 R%d, R%d, 0x%x, RZ, 0xc0;", lay.rT2, lay.rMask, 1<<(r*4+s))
				e.ins(c0().st(6), "ISETP.NE P0, R%d, 0x0;", lay.rT2)
			}
			c := c0().st(1)
			if firstZ {
				c = c.w(0x10)
				firstZ = false
			}
			p := s
			if !g.cfg.UseP2R {
				p = 0
			}
			e.ins(c, "@!P%d MOV R%d, RZ;", p, d+r*4+s)
		}
	}
	e.ins(c0().st(1), "BAR.SYNC;")
}

func log2(v int) int {
	n := 0
	for 1<<n < v {
		n++
	}
	return n
}
