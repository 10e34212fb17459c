package kernels

import (
	"fmt"

	"repro/internal/cubin"
)

// FTFBlock picks the thread-block size for the filter-transform kernel.
func FTFBlock(k int) int {
	if k >= 256 {
		return 256
	}
	return k
}

// generateFTF emits the filter-transform kernel (the paper's separate "FX"
// kernel, Section 4.1): each thread transforms one (c, k) 3x3 filter tile
// with G f G^T (28 float instructions) and stores the 4x4 result.
// GenerateFTF (the cached front door in gencache.go) is the entry point
// callers use.
//
// Layouts: input filter is CRSK — (C, 3, 3, K) — so a warp's loads walk
// consecutive k and are fully coalesced; output is (C, 16, K), the CR'S'K
// layout of Table 4, equally coalesced.
//
// Grid: x = K / block, y = C. Params: +0x0 filter pointer, +0x4 output
// pointer, +0x8 K*4.
func generateFTF(k int) (*cubin.Kernel, error) {
	if k <= 0 || k%32 != 0 {
		return nil, fmt.Errorf("kernels: FTF needs K to be a positive multiple of 32, got %d", k)
	}
	block := FTFBlock(k)
	e := pooledEmitter(0)
	e.raw(".kernel ftf")
	e.raw(".params 12")

	// R0 tid, R1 ctaid.x, R2 ctaid.y, R3 k, R4 fAddr, R5 outAddr, R6 K4.
	e.ins(c0().writeBar(0).st(1), "S2R R0, SR_TID.X;")
	e.ins(c0().writeBar(1).st(1), "S2R R1, SR_CTAID.X;")
	e.ins(c0().writeBar(2).st(2), "S2R R2, SR_CTAID.Y;")
	e.ins(c0().st(6), "MOV R6, c[0x0][0x168];")
	e.ins(c0().w(0x2).st(6), "IMAD R3, R1, %d, RZ;", block)
	e.ins(c0().w(0x1).st(6), "IADD3 R3, R3, R0, RZ;") // k = ctaid.x*block + tid
	// fAddr = fltPtr + c*9*K4 + k*4
	e.ins(c0().w(0x4).st(6), "IMAD R7, R2, 0x9, RZ;")
	e.ins(c0().st(6), "IMAD R4, R7, R6, RZ;")
	e.ins(c0().st(6), "SHF.L R8, R3, 0x2;")
	e.ins(c0().st(6), "IADD3 R4, R4, R8, RZ;")
	e.ins(c0().st(6), "IADD3 R4, R4, c[0x0][0x160], RZ;")
	// outAddr = outPtr + c*16*K4 + k*4
	e.ins(c0().st(6), "SHF.L R7, R2, 0x4;")
	e.ins(c0().st(6), "IMAD R5, R7, R6, RZ;")
	e.ins(c0().st(6), "IADD3 R5, R5, R8, RZ;")
	e.ins(c0().st(6), "IADD3 R5, R5, c[0x0][0x164], RZ;")

	// Load the 9 filter taps into R8..R16, walking the address by K4.
	for j := 0; j < 9; j++ {
		e.ins(c0().writeBar(j%3).st(1), "LDG R%d, [R4];", 8+j)
		if j < 8 {
			e.ins(c0().st(5), "IADD3 R4, R4, R6, RZ;")
		}
	}

	// Gf: middle rows (G rows 1 and 2) into R20..R22 / R23..R25.
	// Wait for all three load barriers before the first use.
	e.ins(c0().w(0x7).st(4), "FADD R26, R8, R14;")
	for cc := 0; cc < 3; cc++ {
		if cc > 0 {
			e.ins(c0().st(4), "FADD R26, R%d, R%d;", 8+cc, 14+cc)
		}
		e.ins(c0().st(4), "FADD R%d, R26, R%d;", 20+cc, 11+cc)
		e.ins(c0().st(4), "FADD R%d, R26, -R%d;", 23+cc, 11+cc)
		e.ins(c0().st(4), "FMUL R%d, R%d, 0.5;", 20+cc, 20+cc)
		e.ins(c0().st(4), "FMUL R%d, R%d, 0.5;", 23+cc, 23+cc)
	}
	// (Gf)G^T rows: row sources are f row0 (R8..10), R20.., R23.., f row2 (R14..16).
	rows := [4]int{8, 20, 23, 14}
	for r := 0; r < 4; r++ {
		a, b, cRight := rows[r], rows[r]+1, rows[r]+2
		o := 28 + r*4
		e.ins(c0().st(4), "MOV R%d, R%d;", o, a)
		e.ins(c0().st(4), "FADD R27, R%d, R%d;", a, cRight)
		e.ins(c0().st(4), "FADD R%d, R27, R%d;", o+1, b)
		e.ins(c0().st(4), "FADD R%d, R27, -R%d;", o+2, b)
		e.ins(c0().st(4), "FMUL R%d, R%d, 0.5;", o+1, o+1)
		e.ins(c0().st(4), "FMUL R%d, R%d, 0.5;", o+2, o+2)
		e.ins(c0().st(4), "MOV R%d, R%d;", o+3, cRight)
	}
	// Store 16 transformed values, walking outAddr by K4.
	for eIdx := 0; eIdx < 16; eIdx++ {
		e.ins(c0().readBar(3).st(1), "STG [R5], R%d;", 28+eIdx)
		if eIdx < 15 {
			e.ins(c0().st(5), "IADD3 R5, R5, R6, RZ;")
		}
	}
	e.ins(c0().w(0x8).st(5), "EXIT;")
	e.raw(".endkernel")
	return e.assemble()
}
