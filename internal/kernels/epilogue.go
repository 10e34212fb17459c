package kernels

// epilogue emits the output transform (paper Section 4.4): the
// accumulated pre-transform tiles are scattered across warps (each warp
// owns tile elements, not tiles), so the data is transposed through a
// padded shared-memory buffer in four rounds — each round moves a quarter
// of the K range — then transformed with A^T m A (24 FADDs per tile) and
// stored to the KHWN output with fully coalesced STGs.
//
// Buffer layout per round: [16 elements][kk][nn] with a row stride of 33
// words; the +1 padding makes lanes that share nn but differ in kk land
// in different banks (the role of the paper's Figure-5 padding).
func (g *gen) epilogue() {
	e, lay, st := g.e, g.lay, g.st

	// Temp registers live in the dead fragment/staging region.
	tB := 160
	if lay.bk == 32 {
		tB = 64
	}
	var (
		rTid  = tB
		rLane = tB + 1
		rWarp = tB + 2
		rOtw  = tB + 3
		rOtr  = tB + 4
		rStg  = tB + 5
		rT    = tB + 6
		rU    = tB + 7
		lds   = tB + 8  // ..+23: the 16 gathered elements
		tmp   = tB + 24 // ..+31: OTF row-pass temporaries
		out   = tB + 32 // ..+35: the 2x2 output tile
		rV    = tB + 36
	)

	// Round-buffer element stride: [16][16][33] words for bk=64 (2112 B),
	// [16][8][33] for bk=32 (1056 B).
	eStride := 16 * 33 * 4
	if lay.bk == 32 {
		eStride = 8 * 33 * 4
	}

	// Drain the final iteration's dead prefetch loads (bars 2/3) before
	// reusing their destination registers as scratch.
	e.ins(c0().w(0x0c).writeBar(0).st(1), "S2R R%d, SR_TID.X;", rTid)
	e.ins(c0().writeBar(1).st(1), "S2R R%d, SR_CTAID.X;", rT)
	e.ins(c0().writeBar(2).st(1), "S2R R%d, SR_CTAID.Y;", rU)
	e.ins(c0().writeBar(3).st(2), "S2R R%d, SR_CTAID.Z;", rV)

	e.ins(c0().w(0x1).st(6), "LOP3 R%d, R%d, 0x1f, RZ, 0xc0;", rLane, rTid)
	e.ins(c0().st(6), "SHF.R R%d, R%d, 0x5;", rWarp, rTid)

	// Batch term (ctaid.x*32 + lane)*4 — computed before rT is reused as
	// scratch below. lds+1 is free until the LDS phase.
	nbR := lds + 1
	e.ins(c0().w(0x2).st(6), "SHF.L R%d, R%d, 0x5;", nbR, rT)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", nbR, nbR, rLane)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", nbR, nbR)

	// Read-side base: otr = (warp*33 + lane)*4 — tile index tid maps to
	// kk = tid>>5, nn = tid&31.
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x84, RZ;", rOtr, rWarp)
	e.ins(c0().st(6), "SHF.L R%d, R%d, 0x2;", rOtw, rLane)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rOtr, rOtr, rOtw)

	// Write-side base and active-lane predicate.
	if lay.bk == 64 {
		// otw = warp*(2*eStride) + (fo1 mod 16 floats)*132 + io1*4.
		e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rOtw, rWarp, 2*eStride)
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rT, rLane)
		e.ins(c0().st(6), "ISETP.LT P0, R%d, 0x8;", rT) // low half-lanes
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x1;", rT, rT)
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0x3, RZ, 0xc0;", rT, rT)
		e.ins(c0().st(6), "IMAD R%d, R%d, 0x210, R%d;", rOtw, rT, rOtw) // kk0*4*132
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0x1, RZ, 0xc0;", rT, rLane)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x4;", rT, rT)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rOtw, rOtw, rT)
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rT, rLane)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rT, rT)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rOtw, rOtw, rT)
	} else {
		// pos = 2*warp + (lane>>4); otw = pos*eStride + (row4*8 floats)*4.
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x4;", rT, rLane)
		e.ins(c0().st(6), "IMAD R%d, R%d, 0x2, R%d;", rT, rWarp, rT)
		e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, RZ;", rOtw, rT, eStride)
		e.ins(c0().st(6), "LOP3 R%d, R%d, 0xf, RZ, 0xc0;", rT, rLane)
		e.ins(c0().st(6), "SHF.R R%d, R%d, 0x2;", rT, rT)
		e.ins(c0().st(6), "SHF.L R%d, R%d, 0x5;", rT, rT)
		e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rOtw, rOtw, rT)
		// col4 (for the per-round active predicate) stays in rV-adjacent
		// temp; recompute per round instead to keep registers few.
	}

	// Output base: outPtr + (ctaid.z*bk + warp)*HWN4 + 2*th*WN4 +
	// 2*tw*N4 + batch term. Scratch: lds+0 holds th.
	thR := lds + 0
	if st.magicM == 0 {
		e.ins(c0().w(0x4).st(6), "SHF.R R%d, R%d, 0x%x;", thR, rU, st.magicS)
	} else {
		e.ins(c0().w(0x4).st(6), "IMAD.HI R%d, R%d, 0x%x, RZ;", thR, rU, st.magicM)
	}
	e.ins(c0().st(6), "IMAD R%d, R%d, -0x%x, R%d;", rU, thR, st.tilesW, rU) // tw
	e.ins(c0().w(0x8).st(6), "IMAD R%d, R%d, 0x%x, RZ;", rStg, rV, lay.bk*st.hwn4)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rStg, rWarp, st.hwn4, rStg)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rStg, thR, 2*st.wn4, rStg)
	e.ins(c0().st(6), "IMAD R%d, R%d, 0x%x, R%d;", rStg, rU, 2*st.n4, rStg)
	e.ins(c0().st(6), "IADD3 R%d, R%d, R%d, RZ;", rStg, rStg, nbR)
	e.ins(c0().st(6), "IADD3 R%d, R%d, c[0x0][0x168], RZ;", rStg, rStg)

	// Edge predicates for odd outputs: P1 = second output row in range,
	// P2 = second column, P3 = both. For even H/W all stores are in
	// range and no guards are emitted.
	oddH, oddW := g.p.H%2 == 1, g.p.W%2 == 1
	if oddH {
		e.ins(c0().st(6), "ISETP.LT P1, R%d, 0x%x;", thR, (g.p.H-1)/2)
	}
	if oddW {
		e.ins(c0().st(6), "ISETP.LT P2, R%d, 0x%x;", rU, (g.p.W-1)/2)
	}
	if oddH && oddW {
		e.ins(c0().st(6), "ISETP.LT P3, R%d, 0x%x, P2;", thR, (g.p.H-1)/2)
	}
	stgGuard := func(dy, dx int) string {
		switch {
		case dy == 1 && dx == 1 && oddH && oddW:
			return "@P3 "
		case dy == 1 && oddH:
			return "@P1 "
		case dx == 1 && oddW:
			return "@P2 "
		}
		return ""
	}

	tilesPerThread := 2
	roundK := 16
	if lay.bk == 32 {
		tilesPerThread = 1
		roundK = 8
	}

	for r := 0; r < 4; r++ {
		e.ins(c0().st(1), "BAR.SYNC;")
		// Scatter this round's accumulators (active lanes only).
		pred := "@P0 "
		if lay.bk == 64 && r%2 == 1 {
			pred = "@!P0 "
		}
		if lay.bk == 32 {
			// active: col4 == r.
			e.ins(c0().st(6), "LOP3 R%d, R%d, 0x3, RZ, 0xc0;", rT, rLane)
			e.ins(c0().st(6), "ISETP.EQ P0, R%d, 0x%x;", rT, r)
			pred = "@P0 "
		}
		if lay.bk == 64 {
			colOff := (r / 2) * 4
			for ePos := 0; ePos < 2; ePos++ {
				for j := 0; j < 4; j++ {
					for jj := 0; jj < 8; jj++ {
						nnoff := jj * 4
						if jj >= 4 {
							nnoff = 64 + (jj-4)*4
						}
						acc := lay.accBase[ePos] + (colOff+j)*8 + jj
						imm := ePos*eStride + j*132 + nnoff
						e.store(c0().st(1), pred, "STS", rOtw, uint32(imm), acc)
					}
				}
			}
		} else {
			for j := 0; j < 8; j++ {
				for jj := 0; jj < 8; jj++ {
					acc := j*8 + jj
					imm := j*132 + jj*4
					e.store(c0().st(1), pred, "STS", rOtw, uint32(imm), acc)
				}
			}
		}
		e.ins(c0().st(1), "BAR.SYNC;")

		for t := 0; t < tilesPerThread; t++ {
			for el := 0; el < 16; el++ {
				e.lds(c0().st(1).writeBar(0), lds+el, rOtr, uint32(el*eStride+t*8*132))
			}
			// OTF pass 1 (A^T m): two output rows per column, emitted in
			// parity sweeps so dependent FADDs sit >= 4 issues apart.
			first := c0().st(1).w(0x1)
			for s := 0; s < 4; s++ {
				e.fadd(first, tmp+s, lds+s, lds+4+s)
				first = c0().st(1)
			}
			for s := 0; s < 4; s++ {
				e.fsub(c0().st(1), tmp+4+s, lds+4+s, lds+8+s)
			}
			for s := 0; s < 4; s++ {
				e.fadd(c0().st(1), tmp+s, tmp+s, lds+8+s)
			}
			for s := 0; s < 4; s++ {
				e.fsub(c0().st(1), tmp+4+s, tmp+4+s, lds+12+s)
			}
			// Pass 2 ((.)A): 2x2 outputs.
			e.fadd(c0().st(1), out+0, tmp+0, tmp+1)
			e.fsub(c0().st(1), out+1, tmp+1, tmp+2)
			e.fadd(c0().st(1), out+2, tmp+4, tmp+5)
			e.fsub(c0().st(1), out+3, tmp+5, tmp+6)
			e.fadd(c0().st(2), out+0, out+0, tmp+2)
			e.fsub(c0().st(2), out+1, out+1, tmp+3)
			e.fadd(c0().st(2), out+2, out+2, tmp+6)
			e.fsub(c0().st(2), out+3, out+3, tmp+7)
			// Store the 2x2 tile; kglob = k0 + r*roundK + kk(+8t for the
			// second tile), all folded into the immediate.
			kimm := (r*roundK + t*8) * st.hwn4
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					imm := kimm + dy*st.wn4 + dx*st.n4
					e.store(c0().st(1), stgGuard(dy, dx), "STG", rStg, uint32(imm), out+dy*2+dx)
				}
			}
		}
	}
	e.ins(c0().st(5), "EXIT;")
}
