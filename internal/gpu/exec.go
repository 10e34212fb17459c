package gpu

import (
	"fmt"
	"math"

	"repro/internal/sass"
)

// warpSize is fixed at 32 lanes on all modelled architectures.
const warpSize = 32

func f32ToBits(f float32) uint32 { return math.Float32bits(f) }
func bitsToF32(b uint32) float32 { return math.Float32frombits(b) }

// warp holds the architectural and scheduling state of one 32-lane warp.
type warp struct {
	idx     int // warp index within the block
	global  int // warp index within the SM (for scheduler assignment)
	block   *blockState
	pc      int
	regs    [][warpSize]uint32 // [register][lane]
	preds   [sass.NumPred][warpSize]bool
	done    bool
	started bool

	// smemPhase counts the barriers this warp has passed in its current
	// block: the oracle (oracle.go) stamps shared-memory accesses with
	// it to delimit barrier intervals. Maintained only while an oracle
	// is attached; reset with the rest of the warp by getWarp.
	smemPhase int

	// Scheduling state.
	nextIssue  int64
	atBar      bool
	barPending [6]int // outstanding dependency-barrier counts
	// barMask mirrors barPending as a bitmask (bit b set iff
	// barPending[b] > 0), maintained at every increment/decrement so the
	// scheduler's eligibility check (stallReason, shared by both
	// backends) is one AND against the instruction's baked wait mask
	// instead of a six-barrier loop.
	barMask uint8

	// Operand reuse cache: regs latched by the previous instruction's
	// reuse flags; valid only while this warp keeps the scheduler slot.
	reuseValid bool
	reuseRegs  [3]sass.Reg
	reuseMask  uint8
	lastYield  bool

	// memReq is the warp's memory-request scratch: exec fills it and the
	// scheduler consumes it within the same issue, so one buffer per warp
	// (not one allocation per memory instruction) suffices.
	memReq memRequest

	// Hazard-checker state: the cycle at which each register's pending
	// write completes, and which dependency barrier guards it (-1 none).
	regReadyAt []int64
	regBar     []int8
	barRegs    [6][]sass.Reg

	// profIdx is this warp's index into the launch profile's warp table;
	// set on block load and meaningful only while a profiler is attached.
	profIdx int
}

// barInc takes one dependency barrier, keeping the barMask mirror in
// step (the matching decrement is in fireEvents).
func (w *warp) barInc(b int8) {
	w.barPending[b]++
	w.barMask |= 1 << uint(b)
}

// quiescent reports whether the warp has no outstanding dependency-barrier
// releases in flight (and so no event queue entry can still reference it).
func (w *warp) quiescent() bool {
	for _, p := range w.barPending {
		if p != 0 {
			return false
		}
	}
	return true
}

// blockState is one resident thread block.
type blockState struct {
	blockIdx int
	ctaid    [3]int
	warps    []*warp
	smem     []uint32
	barWait  int // warps currently at BAR.SYNC
	doneWarp int
}

// fpA reads the (possibly negated) a operand of an FP instruction.
func (w *warp) fpA(in *sass.Inst, lane int) float32 {
	v := bitsToF32(w.readReg(in.Rs0, lane))
	if in.NegA {
		return -v
	}
	return v
}

// fpB reads the (possibly negated) b operand of an FP instruction.
func (w *warp) fpB(in *sass.Inst, lane int, consts []uint32) float32 {
	v := bitsToF32(w.operandB(in, lane, consts))
	if in.NegB {
		return -v
	}
	return v
}

// execResult tells the scheduler what the instruction needs from the
// machine beyond functional effects.
type execResult struct {
	mem      *memRequest // non-nil for LDG/STG/LDS/STS
	exited   bool
	branched bool
	barrier  bool // BAR.SYNC
}

// memRequest describes one warp-level memory instruction for the MIO model.
type memRequest struct {
	op     sass.Opcode
	width  sass.MemWidth
	shared bool
	load   bool
	// addrs holds per-lane byte addresses; active marks the lanes whose
	// guard predicate was true.
	addrs  [warpSize]uint32
	active [warpSize]bool
	any    bool
}

// laneActive evaluates the guard predicate for one lane.
func (w *warp) laneActive(in *sass.Inst, lane int) bool {
	var v bool
	if in.Pred == sass.PT {
		v = true
	} else {
		v = w.preds[in.Pred][lane]
	}
	if in.PredNeg {
		v = !v
	}
	return v
}

func (w *warp) readReg(r sass.Reg, lane int) uint32 {
	if r == sass.RZ {
		return 0
	}
	return w.regs[r][lane]
}

func (w *warp) writeReg(r sass.Reg, lane int, v uint32) {
	if r == sass.RZ {
		return
	}
	w.regs[r][lane] = v
}

// operandB resolves the flexible b operand for one lane.
func (w *warp) operandB(in *sass.Inst, lane int, consts []uint32) uint32 {
	switch in.SrcMode {
	case sass.SrcImm:
		return in.Imm
	case sass.SrcConst:
		ofs := int(in.ConstOfs) / 4
		if in.ConstBank != 0 || ofs >= len(consts) {
			return 0
		}
		return consts[ofs]
	default:
		return w.readReg(in.Rs1, lane)
	}
}

// exec executes one instruction functionally across the warp and reports
// its machine requirements. Memory instructions have their addresses
// computed here; the data movement happens in the simulator so that the
// MIO model can account for it first.
//
// exec is the per-lane semantic reference: every case walks the lanes
// through laneActive, readReg, operandB and writeReg, with no shape-
// specialized shortcuts. The fast paths live only in the threaded
// handlers (threaded.go); the switch backend runs every instruction
// through exec, so the backend differential tests check those handlers
// against this independent definition. mi is consulted only for the
// uniform guard of EXIT and BRA.
func (w *warp) exec(in *sass.Inst, mi *instMeta, consts []uint32) (execResult, error) {
	var res execResult
	switch in.Op {
	case sass.OpNOP:
	case sass.OpEXIT:
		if !mi.uniform {
			if err := w.uniformGuard(in); err != nil {
				return res, err
			}
			if !w.laneActive(in, 0) {
				break
			}
		}
		res.exited = true
	case sass.OpBRA:
		if !mi.uniform {
			if err := w.uniformGuard(in); err != nil {
				return res, err
			}
			if !w.laneActive(in, 0) {
				break
			}
		}
		w.pc += int(int32(in.Imm))
		res.branched = true
	case sass.OpBAR:
		res.barrier = true
	case sass.OpFFMA:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			a := w.fpA(in, l)
			b := w.fpB(in, l, consts)
			c := bitsToF32(w.readReg(in.Rs2, l))
			w.writeReg(in.Rd, l, f32ToBits(a*b+c))
		}
	case sass.OpFADD:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			w.writeReg(in.Rd, l, f32ToBits(w.fpA(in, l)+w.fpB(in, l, consts)))
		}
	case sass.OpFMUL:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			w.writeReg(in.Rd, l, f32ToBits(w.fpA(in, l)*w.fpB(in, l, consts)))
		}
	case sass.OpMOV:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			w.writeReg(in.Rd, l, w.operandB(in, l, consts))
		}
	case sass.OpIADD3:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			v := w.readReg(in.Rs0, l) + w.operandB(in, l, consts) + w.readReg(in.Rs2, l)
			w.writeReg(in.Rd, l, v)
		}
	case sass.OpIMAD:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			a := w.readReg(in.Rs0, l)
			b := w.operandB(in, l, consts)
			var v uint32
			if in.ShRight { // IMAD.HI
				v = uint32((uint64(a)*uint64(b))>>32) + w.readReg(in.Rs2, l)
			} else {
				v = a*b + w.readReg(in.Rs2, l)
			}
			w.writeReg(in.Rd, l, v)
		}
	case sass.OpISETP:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			a := int32(w.readReg(in.Rs0, l))
			b := int32(w.operandB(in, l, consts))
			var v bool
			switch in.Cmp {
			case sass.CmpLT:
				v = a < b
			case sass.CmpEQ:
				v = a == b
			case sass.CmpLE:
				v = a <= b
			case sass.CmpGT:
				v = a > b
			case sass.CmpNE:
				v = a != b
			case sass.CmpGE:
				v = a >= b
			}
			if in.SrcPred != sass.PT {
				v = v && w.preds[in.SrcPred][l]
			}
			if in.Pd != sass.PT {
				w.preds[in.Pd][l] = v
			}
		}
	case sass.OpLOP3:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			a := w.readReg(in.Rs0, l)
			b := w.operandB(in, l, consts)
			c := w.readReg(in.Rs2, l)
			w.writeReg(in.Rd, l, lop3(a, b, c, in.Lut))
		}
	case sass.OpSHF:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			a := w.readReg(in.Rs0, l)
			amt := w.operandB(in, l, consts) & 31
			var v uint32
			if in.ShRight {
				v = a >> amt
			} else {
				v = a << amt
			}
			w.writeReg(in.Rd, l, v)
		}
	case sass.OpSEL:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			sel := in.SrcPred == sass.PT || w.preds[in.SrcPred][l]
			if sel {
				w.writeReg(in.Rd, l, w.readReg(in.Rs0, l))
			} else {
				w.writeReg(in.Rd, l, w.operandB(in, l, consts))
			}
		}
	case sass.OpS2R:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			var v uint32
			switch int(in.Imm) {
			case sass.SRTidX:
				v = uint32(w.idx*warpSize + l)
			case sass.SRCtaidX:
				v = uint32(w.block.ctaid[0])
			case sass.SRCtaidY:
				v = uint32(w.block.ctaid[1])
			case sass.SRCtaidZ:
				v = uint32(w.block.ctaid[2])
			case sass.SRLaneID:
				v = uint32(l)
			default:
				v = 0
			}
			w.writeReg(in.Rd, l, v)
		}
	case sass.OpP2R:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			var v uint32
			for p := 0; p < sass.NumPred; p++ {
				if w.preds[p][l] {
					v |= 1 << uint(p)
				}
			}
			w.writeReg(in.Rd, l, v&in.Imm)
		}
	case sass.OpR2P:
		for l := 0; l < warpSize; l++ {
			if !w.laneActive(in, l) {
				continue
			}
			v := w.readReg(in.Rs0, l)
			for p := 0; p < sass.NumPred; p++ {
				if in.Imm&(1<<uint(p)) != 0 {
					w.preds[p][l] = v&(1<<uint(p)) != 0
				}
			}
		}
	case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
		req := &w.memReq
		req.op = in.Op
		req.width = in.Width
		req.shared = in.Op == sass.OpLDS || in.Op == sass.OpSTS
		req.load = in.Op == sass.OpLDG || in.Op == sass.OpLDS
		req.any = false
		// The scratch is reused, so inactive lanes must be cleared
		// explicitly.
		for l := 0; l < warpSize; l++ {
			if w.laneActive(in, l) {
				req.addrs[l] = w.readReg(in.Rs0, l) + in.Imm
				req.active[l] = true
				req.any = true
			} else {
				req.active[l] = false
			}
		}
		res.mem = req
	default:
		return res, fmt.Errorf("gpu: unimplemented opcode %s", in.Op)
	}
	return res, nil
}

// uniformGuard rejects control flow whose guard predicate diverges within
// the warp; the simulator does not model a reconvergence stack, and the
// kernels in this repository are written to branch uniformly (per-lane
// conditionals use predicated instructions instead).
func (w *warp) uniformGuard(in *sass.Inst) error {
	first := w.laneActive(in, 0)
	for l := 1; l < warpSize; l++ {
		if w.laneActive(in, l) != first {
			return fmt.Errorf("gpu: divergent %s at pc %d (warp %d)", in.Op, w.pc-1, w.idx)
		}
	}
	return nil
}

// lop3 computes the 3-input boolean function given by the truth table.
func lop3(a, b, c uint32, lut uint8) uint32 {
	var r uint32
	for m := 0; m < 8; m++ {
		if lut&(1<<uint(m)) == 0 {
			continue
		}
		t := ^uint32(0)
		if m&4 != 0 {
			t &= a
		} else {
			t &= ^a
		}
		if m&2 != 0 {
			t &= b
		} else {
			t &= ^b
		}
		if m&1 != 0 {
			t &= c
		} else {
			t &= ^c
		}
		r |= t
	}
	return r
}

// sourceRegs lists the distinct live register reads of an instruction,
// used by the register-bank-conflict model and the hazard checker. Called
// once per instruction at program-decode time (see buildProgram), never
// in the per-issue path.
func sourceRegs(in *sass.Inst) []sass.Reg {
	var out []sass.Reg
	add := func(r sass.Reg) {
		if r == sass.RZ {
			return
		}
		for _, e := range out {
			if e == r {
				return
			}
		}
		out = append(out, r)
	}
	switch in.Op {
	case sass.OpFFMA, sass.OpIMAD, sass.OpIADD3, sass.OpLOP3:
		add(in.Rs0)
		if in.SrcMode == sass.SrcReg {
			add(in.Rs1)
		}
		add(in.Rs2)
	case sass.OpFADD, sass.OpFMUL, sass.OpISETP, sass.OpSHF, sass.OpSEL:
		add(in.Rs0)
		if in.SrcMode == sass.SrcReg {
			add(in.Rs1)
		}
	case sass.OpMOV:
		if in.SrcMode == sass.SrcReg {
			add(in.Rs1)
		}
	case sass.OpLDG, sass.OpLDS:
		add(in.Rs0)
	case sass.OpSTG, sass.OpSTS:
		add(in.Rs0)
		for j := 0; j < in.Width.Regs(); j++ {
			add(in.Rs2 + sass.Reg(j))
		}
	case sass.OpR2P:
		add(in.Rs0)
	}
	return out
}

// destRegs lists the registers an instruction writes. Like sourceRegs it
// runs only at program-decode time.
func destRegs(in *sass.Inst) []sass.Reg {
	switch in.Op {
	case sass.OpLDG, sass.OpLDS:
		if in.Rd == sass.RZ {
			return nil
		}
		out := make([]sass.Reg, in.Width.Regs())
		for j := range out {
			out[j] = in.Rd + sass.Reg(j)
		}
		return out
	case sass.OpFFMA, sass.OpFADD, sass.OpFMUL, sass.OpMOV, sass.OpIADD3,
		sass.OpIMAD, sass.OpLOP3, sass.OpSHF, sass.OpSEL, sass.OpS2R, sass.OpP2R:
		if in.Rd == sass.RZ {
			return nil
		}
		return []sass.Reg{in.Rd}
	}
	return nil
}
