package gpu

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sass"
)

// allOpcodes is every defined opcode plus one undefined value, which both
// paths must reject with the same error.
var allOpcodes = []sass.Opcode{
	sass.OpNOP, sass.OpFFMA, sass.OpFADD, sass.OpFMUL, sass.OpMOV,
	sass.OpIADD3, sass.OpIMAD, sass.OpISETP, sass.OpLOP3, sass.OpSHF,
	sass.OpSEL, sass.OpS2R, sass.OpP2R, sass.OpR2P, sass.OpLDG, sass.OpSTG,
	sass.OpLDS, sass.OpSTS, sass.OpBAR, sass.OpBRA, sass.OpEXIT,
	sass.Opcode(0x001),
}

// testRegs is the register file size of the random warps: small, so
// destinations and sources alias often.
const testRegs = 8

// testConsts is the constant-bank image the random instructions read.
var testConsts = []uint32{0x3f800000, 0x80000000, 0x7f800000, 0x00000001, 0x7fc00123, 17}

// edgeBits are the float32 bit patterns the register generator favours:
// ±0, ±Inf, quiet and signalling NaN payloads, subnormals and extremes.
var edgeBits = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0x7fc12345, 0xffc00001, 0x7f800001, 0xffbfffff, // NaNs
	0x00000001, 0x807fffff, 0x00400000, // subnormals
	0x3f800000, 0xbf800000, 0x7f7fffff, 0x00800000, // ±1, max, min normal
}

func randReg(rng *rand.Rand) sass.Reg {
	if rng.Intn(5) == 0 {
		return sass.RZ
	}
	return sass.Reg(rng.Intn(testRegs))
}

// randInst draws an instruction over every opcode, operand mode, guard
// and negation, with RZ operands, non-zero constant banks, out-of-range
// and unaligned constant offsets, and every control-code field.
func randInst(rng *rand.Rand) sass.Inst {
	in := sass.Inst{
		Op:      allOpcodes[rng.Intn(len(allOpcodes))],
		Pred:    sass.PT,
		PredNeg: rng.Intn(4) == 0,
		Rd:      randReg(rng),
		Rs0:     randReg(rng),
		Rs1:     randReg(rng),
		Rs2:     randReg(rng),
		SrcMode: sass.SrcMode(rng.Intn(3)),
		Imm:     rng.Uint32(),
		// Offsets run past the bank image to reach the zero fallback.
		ConstOfs: uint16(rng.Intn(4 * (len(testConsts) + 2))),
		Pd:       sass.Pred(rng.Intn(sass.NumPred + 1)),
		SrcPred:  sass.Pred(rng.Intn(sass.NumPred + 1)),
		Width:    []sass.MemWidth{sass.W32, sass.W64, sass.W128}[rng.Intn(3)],
		Cmp:      sass.CmpOp(rng.Intn(6)),
		ShRight:  rng.Intn(2) == 0,
		Lut:      uint8(rng.Intn(256)),
		NegA:     rng.Intn(3) == 0,
		NegB:     rng.Intn(3) == 0,
		Ctrl: sass.Ctrl{
			Stall:    uint8(rng.Intn(16)),
			Yield:    rng.Intn(2) == 0,
			WriteBar: int8(rng.Intn(7)) - 1,
			ReadBar:  int8(rng.Intn(7)) - 1,
			WaitMask: uint8(rng.Intn(64)),
			Reuse:    uint8(rng.Intn(8)),
		},
	}
	if rng.Intn(2) == 0 {
		in.Pred = sass.Pred(rng.Intn(sass.NumPred))
	}
	if rng.Intn(4) == 0 {
		in.ConstBank = uint8(1 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		in.Imm = uint32(rng.Intn(8)) // S2R indices, small masks and offsets
	}
	return in
}

// randWarp draws a warp whose registers mix float edge cases, small
// integers and random words, and whose predicates are uniform (all lanes
// equal) or divergent at random.
func randWarp(rng *rand.Rand) *warp {
	w := &warp{
		idx:   rng.Intn(8),
		pc:    rng.Intn(64),
		regs:  make([][warpSize]uint32, testRegs),
		block: &blockState{ctaid: [3]int{rng.Intn(9), rng.Intn(9), rng.Intn(9)}},
	}
	for r := range w.regs {
		for l := range w.regs[r] {
			switch rng.Intn(3) {
			case 0:
				w.regs[r][l] = edgeBits[rng.Intn(len(edgeBits))]
			case 1:
				w.regs[r][l] = uint32(rng.Intn(256))
			default:
				w.regs[r][l] = rng.Uint32()
			}
		}
	}
	for p := range w.preds {
		mode := rng.Intn(3)
		for l := range w.preds[p] {
			switch mode {
			case 0:
				w.preds[p][l] = true
			case 1:
				w.preds[p][l] = false
			default:
				w.preds[p][l] = rng.Intn(2) == 0
			}
		}
	}
	// Stale scratch from an earlier memory instruction: the paths must
	// overwrite every field they report.
	for l := range w.memReq.addrs {
		w.memReq.addrs[l] = rng.Uint32()
		w.memReq.active[l] = rng.Intn(2) == 0
	}
	w.memReq.any = rng.Intn(2) == 0
	return w
}

func cloneWarp(w *warp) *warp {
	c := *w
	c.regs = append([][warpSize]uint32(nil), w.regs...)
	return &c
}

// diffWarps returns a description of the first difference between the
// architectural state, pc and memory request the two paths left behind,
// or "" when they agree. Addresses count only on active lanes.
func diffWarps(got, want *warp, gotRes, wantRes execResult) string {
	if got.pc != want.pc {
		return "pc"
	}
	for r := range got.regs {
		for l := range got.regs[r] {
			if got.regs[r][l] != want.regs[r][l] {
				return fmt.Sprintf("R%d lane %d", r, l)
			}
		}
	}
	if got.preds != want.preds {
		return "predicates"
	}
	if gotRes.exited != wantRes.exited || gotRes.branched != wantRes.branched ||
		gotRes.barrier != wantRes.barrier || (gotRes.mem == nil) != (wantRes.mem == nil) {
		return "execResult"
	}
	if gotRes.mem == nil {
		return ""
	}
	if gotRes.mem != &got.memReq || wantRes.mem != &want.memReq {
		return "execResult.mem is not the warp's scratch"
	}
	g, e := &got.memReq, &want.memReq
	if g.op != e.op || g.width != e.width || g.shared != e.shared || g.load != e.load ||
		g.any != e.any || g.active != e.active {
		return "memReq"
	}
	for l := range g.addrs {
		if g.active[l] && g.addrs[l] != e.addrs[l] {
			return fmt.Sprintf("memReq.addrs lane %d", l)
		}
	}
	return ""
}

// TestHandlersMatchReference checks every handler selectHandler can pick
// against the reference exec, instruction by instruction: on random
// shapes and random warp states, the handler run on one clone and exec
// run on the other must leave identical registers, predicates, pc,
// execResult and memory request (and the same error).
func TestHandlersMatchReference(t *testing.T) {
	n := 200000
	if testing.Short() || raceEnabled {
		n = 20000
	}
	rng := rand.New(rand.NewSource(21))
	insts := make([]sass.Inst, n)
	for i := range insts {
		insts[i] = randInst(rng)
	}
	p := newProgram(insts)
	sm := &smSim{consts: testConsts}
	selected := map[uintptr]int{}
	base := randWarp(rng)
	for pc := range p.nodes {
		if pc%16 == 0 {
			base = randWarp(rng)
		}
		nd := &p.nodes[pc]
		selected[reflect.ValueOf(nd.fn).Pointer()]++
		got, want := cloneWarp(base), cloneWarp(base)
		gotRes, gotErr := nd.fn(sm, got, nd)
		wantRes, wantErr := want.exec(nd.in, nd.mi, sm.consts)
		if (gotErr == nil) != (wantErr == nil) ||
			(gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("inst %d %v: handler error %v, exec error %v", pc, nd.in, gotErr, wantErr)
		}
		if d := diffWarps(got, want, gotRes, wantRes); d != "" {
			t.Fatalf("inst %d %v (uniform=%v): handler and exec differ in %s",
				pc, nd.in, nd.mi.uniform, d)
		}
		// Carry the reference state forward so later instructions see
		// values earlier ones produced (NaN propagation, reused scratch).
		base = want
	}
	// Every handler must have been exercised, or the generator has
	// stopped reaching its shape.
	for i, h := range []handlerFn{
		hGeneric, hNop, hExitUniform, hBraUniform, hBarrier,
		hFFMAReg, hFFMAScalar, hFADDReg, hFMULReg, hMOVReg, hMOVScalar,
		hIADD3Reg, hIADD3Scalar, hIMADReg, hIMADHiReg, hIMADScalar,
		hIMADHiScalar, hLOP3Reg, hLOP3Scalar, hMemUniform,
	} {
		if c := selected[reflect.ValueOf(h).Pointer()]; c < 10 {
			t.Errorf("handler %d selected %d times, want at least 10", i, c)
		}
	}
}

// TestNodesMatchControlCodes checks the metadata buildNodes bakes into
// every node against its raw derivation from the instruction and its
// control code, and that a static mayBank=false is exact: no operand-
// reuse latch state can make regBankConflict report a conflict.
func TestNodesMatchControlCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	insts := make([]sass.Inst, 20000)
	for i := range insts {
		insts[i] = randInst(rng)
	}
	p := newProgram(insts)
	classOf := map[sass.Opcode]uint8{
		sass.OpFFMA: classFP, sass.OpFADD: classFP, sass.OpFMUL: classFP,
		sass.OpMOV: classInt, sass.OpIADD3: classInt, sass.OpIMAD: classInt,
		sass.OpISETP: classInt, sass.OpLOP3: classInt, sass.OpSHF: classInt,
		sass.OpSEL: classInt, sass.OpS2R: classInt, sass.OpP2R: classInt,
		sass.OpR2P: classInt,
		sass.OpLDG: classMem, sass.OpSTG: classMem, sass.OpLDS: classMem,
		sass.OpSTS: classMem,
	}
	sm := &smSim{}
	for pc := range p.nodes {
		in, nd := &p.insts[pc], &p.nodes[pc]
		stall := int64(in.Ctrl.Stall)
		if stall < 1 {
			stall = 1
		}
		braOfs := 0
		if in.Op == sass.OpBRA {
			braOfs = int(int32(in.Imm))
		}
		reuseRegs := [3]sass.Reg{in.Rs0, in.Rs1, in.Rs2}
		if in.SrcMode != sass.SrcReg {
			reuseRegs[1] = sass.RZ
		}
		want := node{
			class:     classOf[in.Op],
			isLDG:     in.Op == sass.OpLDG,
			isFFMA:    in.Op == sass.OpFFMA,
			yield:     in.Ctrl.Yield,
			waitMask:  in.Ctrl.WaitMask,
			reuse:     in.Ctrl.Reuse,
			writeBar:  in.Ctrl.WriteBar,
			readBar:   in.Ctrl.ReadBar,
			stall:     stall,
			isS2R:     in.Op == sass.OpS2R,
			braOfs:    braOfs,
			mayBank:   nd.mayBank, // checked against regBankConflict below
			reuseRegs: reuseRegs,
			in:        in,
			mi:        &p.meta[pc],
		}
		got := *nd
		got.fn = nil
		if got.in != want.in || got.mi != want.mi || !reflect.DeepEqual(got, want) {
			t.Fatalf("pc %d %v ctrl %+v:\nnode %+v\nwant %+v", pc, in, in.Ctrl, got, want)
		}
		if nd.class != classFP {
			if nd.mayBank {
				t.Fatalf("pc %d %v: mayBank set on a non-FP instruction", pc, in)
			}
			continue
		}
		// Without a valid latch the dynamic check sees the full static
		// source set, so it must agree with mayBank exactly.
		w := &warp{}
		if got := sm.regBankConflict(w, in); got != nd.mayBank {
			t.Fatalf("pc %d %v: regBankConflict without reuse = %v, mayBank = %v", pc, in, got, nd.mayBank)
		}
		if nd.mayBank {
			continue
		}
		// Only whether each latch slot holds that slot's source register
		// matters, so these states cover every reuse latch.
		slots := [3]sass.Reg{in.Rs0, in.Rs1, in.Rs2}
		w.reuseValid = true
		for mask := uint8(0); mask < 8; mask++ {
			for hit := 0; hit < 8; hit++ {
				w.reuseMask = mask
				for s := range slots {
					w.reuseRegs[s] = slots[s] ^ 1
					if hit&(1<<s) != 0 {
						w.reuseRegs[s] = slots[s]
					}
				}
				if sm.regBankConflict(w, in) {
					t.Fatalf("pc %d %v: mayBank = false but latch mask %03b regs %v conflicts",
						pc, in, mask, w.reuseRegs)
				}
			}
		}
	}
}
