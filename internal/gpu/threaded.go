package gpu

import "repro/internal/sass"

// This file is the threaded-code execution backend and the one issue
// path both backends share. The decoded-program cache partitions every
// kernel into basic blocks and pre-resolves, per block, a flat chain of
// typed handler funcs (program.nodes) with all per-instruction metadata
// baked in at decode time; issue runs the chain instead of switching on
// the opcode and re-deriving control-code fields per issue.
//
// Equivalence contract: the scheduler (run, tryIssue, stallReason in
// sim.go) and issue below are shared, so the backends differ only in the
// function that executes the chosen instruction. The threaded backend
// runs the node's handler; the switch backend runs hGeneric, that is
// exec (exec.go), the per-lane reference, on every node. The handlers
// below are the only fast paths: each computes, for the exact shape it
// was selected for, what exec computes (same expressions, so FP rounding
// cannot differ). TestHandlersMatchReference checks that instruction by
// instruction on random shapes and warp states; the differential backend
// tests (internal/kernels) check it on the full quick-sweep config set
// plus randomized control codes.

// handlerFn executes one instruction functionally across a warp. The
// node carries the pre-resolved shape, so handlers skip the opcode
// switch, the guard-predicate checks of uniform instructions, and the
// operand-mode dispatch.
type handlerFn func(sm *smSim, w *warp, nd *node) (execResult, error)

// selectHandler picks the chain handler for an instruction's exact
// shape. Shapes without a specialized handler fall back to hGeneric, the
// reference exec for that single instruction.
func selectHandler(in *sass.Inst, mi *instMeta) handlerFn {
	switch in.Op {
	case sass.OpNOP:
		return hNop
	case sass.OpEXIT:
		if mi.uniform {
			return hExitUniform
		}
	case sass.OpBRA:
		if mi.uniform {
			return hBraUniform
		}
	case sass.OpBAR:
		return hBarrier
	case sass.OpFFMA:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform && !in.NegA && !in.NegB {
			if in.SrcMode == sass.SrcReg {
				return hFFMAReg
			}
			return hFFMAScalar
		}
	case sass.OpFADD:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform && !in.NegA && !in.NegB && in.SrcMode == sass.SrcReg {
			return hFADDReg
		}
	case sass.OpFMUL:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform && !in.NegA && !in.NegB && in.SrcMode == sass.SrcReg {
			return hFMULReg
		}
	case sass.OpMOV:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform {
			if in.SrcMode == sass.SrcReg {
				return hMOVReg
			}
			return hMOVScalar
		}
	case sass.OpIADD3:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform {
			if in.SrcMode == sass.SrcReg {
				return hIADD3Reg
			}
			return hIADD3Scalar
		}
	case sass.OpIMAD:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform {
			switch {
			case in.SrcMode == sass.SrcReg && in.ShRight:
				return hIMADHiReg
			case in.SrcMode == sass.SrcReg:
				return hIMADReg
			case in.ShRight:
				return hIMADHiScalar
			default:
				return hIMADScalar
			}
		}
	case sass.OpLOP3:
		if in.Rd == sass.RZ {
			return hNop
		}
		if mi.uniform {
			if in.SrcMode == sass.SrcReg {
				return hLOP3Reg
			}
			return hLOP3Scalar
		}
	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
		if mi.uniform {
			return hMemUniform
		}
	}
	return hGeneric
}

// hGeneric runs the reference exec on one instruction. It is the
// threaded backend's fallback for shapes with no specialized handler
// (ISETP, SHF, SEL, S2R, P2R, R2P, predicated ALU, memory and control
// shapes, unknown opcodes) and the switch backend's handler for every
// instruction.
func hGeneric(sm *smSim, w *warp, nd *node) (execResult, error) {
	return w.exec(nd.in, nd.mi, sm.consts)
}

// zeroRegs is the read-only lane image of RZ, so uniform fast paths can
// treat every source as a plain array pointer. Never written.
var zeroRegs [warpSize]uint32

// srcPtr returns the lane array backing register r for reading (RZ reads
// as the shared zero image).
func (w *warp) srcPtr(r sass.Reg) *[warpSize]uint32 {
	if r == sass.RZ {
		return &zeroRegs
	}
	return &w.regs[r]
}

// scalarB resolves a lane-invariant b operand (immediate or constant).
// Only valid when in.SrcMode != SrcReg.
func scalarB(in *sass.Inst, consts []uint32) uint32 {
	if in.SrcMode == sass.SrcImm {
		return in.Imm
	}
	ofs := int(in.ConstOfs) / 4
	if in.ConstBank != 0 || ofs >= len(consts) {
		return 0
	}
	return consts[ofs]
}

func hNop(sm *smSim, w *warp, nd *node) (execResult, error) {
	return execResult{}, nil
}

func hExitUniform(sm *smSim, w *warp, nd *node) (execResult, error) {
	return execResult{exited: true}, nil
}

func hBraUniform(sm *smSim, w *warp, nd *node) (execResult, error) {
	w.pc += nd.braOfs
	return execResult{branched: true}, nil
}

func hBarrier(sm *smSim, w *warp, nd *node) (execResult, error) {
	return execResult{barrier: true}, nil
}

func hFFMAReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1), w.srcPtr(in.Rs2)
	for l := 0; l < warpSize; l++ {
		a := bitsToF32(ap[l])
		b := bitsToF32(bp[l])
		c := bitsToF32(cp[l])
		d[l] = f32ToBits(a*b + c)
	}
	return execResult{}, nil
}

func hFFMAScalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs2)
	b := bitsToF32(scalarB(in, sm.consts))
	for l := 0; l < warpSize; l++ {
		a := bitsToF32(ap[l])
		c := bitsToF32(cp[l])
		d[l] = f32ToBits(a*b + c)
	}
	return execResult{}, nil
}

func hFADDReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1)
	for l := 0; l < warpSize; l++ {
		d[l] = f32ToBits(bitsToF32(ap[l]) + bitsToF32(bp[l]))
	}
	return execResult{}, nil
}

func hFMULReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1)
	for l := 0; l < warpSize; l++ {
		d[l] = f32ToBits(bitsToF32(ap[l]) * bitsToF32(bp[l]))
	}
	return execResult{}, nil
}

func hMOVReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	w.regs[in.Rd] = *w.srcPtr(in.Rs1)
	return execResult{}, nil
}

func hMOVScalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	v := scalarB(in, sm.consts)
	for l := 0; l < warpSize; l++ {
		d[l] = v
	}
	return execResult{}, nil
}

func hIADD3Reg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1), w.srcPtr(in.Rs2)
	for l := 0; l < warpSize; l++ {
		d[l] = ap[l] + bp[l] + cp[l]
	}
	return execResult{}, nil
}

func hIADD3Scalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs2)
	b := scalarB(in, sm.consts)
	for l := 0; l < warpSize; l++ {
		d[l] = ap[l] + b + cp[l]
	}
	return execResult{}, nil
}

func hIMADReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1), w.srcPtr(in.Rs2)
	for l := 0; l < warpSize; l++ {
		d[l] = ap[l]*bp[l] + cp[l]
	}
	return execResult{}, nil
}

func hIMADHiReg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1), w.srcPtr(in.Rs2)
	for l := 0; l < warpSize; l++ {
		d[l] = uint32((uint64(ap[l])*uint64(bp[l]))>>32) + cp[l]
	}
	return execResult{}, nil
}

func hIMADScalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs2)
	b := scalarB(in, sm.consts)
	for l := 0; l < warpSize; l++ {
		d[l] = ap[l]*b + cp[l]
	}
	return execResult{}, nil
}

func hIMADHiScalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs2)
	b := scalarB(in, sm.consts)
	for l := 0; l < warpSize; l++ {
		d[l] = uint32((uint64(ap[l])*uint64(b))>>32) + cp[l]
	}
	return execResult{}, nil
}

func hLOP3Reg(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, bp, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs1), w.srcPtr(in.Rs2)
	for l := 0; l < warpSize; l++ {
		d[l] = lop3(ap[l], bp[l], cp[l], in.Lut)
	}
	return execResult{}, nil
}

func hLOP3Scalar(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	d := &w.regs[in.Rd]
	ap, cp := w.srcPtr(in.Rs0), w.srcPtr(in.Rs2)
	b := scalarB(in, sm.consts)
	for l := 0; l < warpSize; l++ {
		d[l] = lop3(ap[l], b, cp[l], in.Lut)
	}
	return execResult{}, nil
}

func hMemUniform(sm *smSim, w *warp, nd *node) (execResult, error) {
	in := nd.in
	req := &w.memReq
	req.op = in.Op
	req.width = in.Width
	req.shared = in.Op == sass.OpLDS || in.Op == sass.OpSTS
	req.load = in.Op == sass.OpLDG || in.Op == sass.OpLDS
	ap := w.srcPtr(in.Rs0)
	for l := 0; l < warpSize; l++ {
		req.addrs[l] = ap[l] + in.Imm
		req.active[l] = true
	}
	req.any = true
	return execResult{mem: req}, nil
}

// issue executes the chosen warp's next instruction and applies its
// machine effects: counters, profiler hooks, hazard check, timing, and
// class effects, all read from the node. Both backends run this path;
// the switch backend only swaps the node's handler for hGeneric.
func (sm *smSim) issue(sc *scheduler, w *warp) error {
	pc := w.pc
	nd := &sm.nodes[pc]
	w.pc++

	switched := sc.last != nil && sc.last != w
	penalty := int64(0)
	if switched {
		penalty = 1
		sm.m.SwitchCount++
		w.reuseValid = false
	}

	fn := nd.fn
	if sm.backend == BackendSwitch {
		fn = hGeneric
	}
	res, err := fn(sm, w, nd)
	if err != nil {
		return err
	}
	sm.m.Issued++
	if sm.prof != nil {
		sm.prof.noteIssue(w, pc, sm.now, res.exited)
		sc.profLastIssueAt = sm.now
		sm.m.WarpCycles[StallNone]++
	}

	if sm.hazard {
		sm.checkHazards(w, nd.in, nd.mi)
	}

	// A warp switch delays the effective issue by one cycle (paper
	// footnote 4: "one extra cycle to switch to another warp").
	base := sm.now + penalty
	w.nextIssue = base + nd.stall
	sc.busyUntil = base + 1

	switch nd.class {
	case classFP:
		sm.m.FPIssued++
		if nd.isFFMA {
			sm.m.FFMAs++
		}
		dur := sm.fpDur
		if nd.mayBank && sm.regBankConflict(w, nd.in) {
			dur++
			sm.m.RegBankConflicts++
		}
		sc.fpBusyUntil = base + dur
		sm.m.FPPipeUseful += sm.fpDur
		sm.noteFixedWrite(w, nd.mi, sm.fpLat)
	case classInt:
		sm.m.IntIssued++
		sc.intBusyUntil = base + 2
		lat := sm.aluLat
		if nd.isS2R {
			lat = sm.s2rLat
		}
		sm.noteFixedWrite(w, nd.mi, lat)
		if nd.writeBar >= 0 {
			w.barInc(nd.writeBar)
			sm.addEvent(event{at: base + lat, kind: evBarRelease, warp: w, bar: nd.writeBar})
		}
	case classMem:
		if err := sm.issueMem(w, nd.in, nd.mi, res.mem, base); err != nil {
			return err
		}
	default:
		switch {
		case res.barrier:
			sm.warpBarrier(w, nd.in)
		case res.exited:
			sm.warpExit(w)
		}
	}

	// Latch operand-reuse state for the next ALU instruction of this
	// warp. Interleaved memory instructions leave the latch untouched;
	// only a warp switch (above) or an ALU instruction without reuse
	// flags invalidates it.
	if nd.class == classFP || nd.class == classInt {
		if nd.reuse != 0 {
			w.reuseValid = true
			w.reuseMask = nd.reuse
			w.reuseRegs = nd.reuseRegs
		} else {
			w.reuseValid = false
		}
	}
	w.lastYield = nd.yield
	sc.last = w
	return nil
}
