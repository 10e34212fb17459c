package gpu

import (
	"sync"

	"repro/internal/cubin"
	"repro/internal/sass"
)

// Instruction classes, baked into each node so the per-cycle issue path
// never re-derives them from the opcode.
const (
	classOther uint8 = iota // NOP, EXIT, BRA, BAR
	classFP                 // FFMA/FADD/FMUL: float pipe
	classInt                // MOV/IADD3/IMAD/ISETP/... : ALU pipe
	classMem                // LDG/STG/LDS/STS: MIO pipe
)

// instMeta is the per-instruction metadata shared by the reference exec
// and the hazard checker. It is computed once per kernel when the program
// is decoded and shared read-only by every Sim that launches the kernel,
// replacing the per-exec source/destination register recomputation
// (which allocated).
type instMeta struct {
	// uniform means the guard predicate is PT and not negated: every
	// lane executes, so per-lane laneActive checks can be skipped.
	uniform bool
	// srcRegs/dstRegs are the distinct live register reads/writes, used
	// by the hazard checker and the register sizing pass.
	srcRegs []sass.Reg
	dstRegs []sass.Reg
}

// progBlock is one basic block of a decoded kernel: the half-open pc
// range [start, end). Blocks are ended by control flow (BRA, EXIT), by
// barriers (BAR — the warp parks, so the chain cannot run past it), and
// by branch targets (a label starts a new block). The threaded-code
// backend pre-resolves one flat chain of handler funcs per block; the
// chains are laid out back to back in program.nodes, so nodes[start:end]
// is block's chain.
type progBlock struct {
	start, end int
}

// node is one pre-resolved element of a basic block's handler chain: the
// typed execute handler for the instruction's exact shape plus every
// piece of per-instruction metadata the issue path consults, baked at
// decode time so the threaded hot loop never switches on the opcode or
// chases control-code fields. Immutable and shared like the rest of the
// program.
type node struct {
	fn handlerFn
	// Scheduling metadata, pre-extracted from the opcode and sass.Ctrl.
	class    uint8
	isLDG    bool // global load: holds an MSHR as well as a dispatch slot
	isFFMA   bool
	yield    bool
	waitMask uint8
	reuse    uint8
	writeBar int8
	readBar  int8
	stall    int64 // max(Ctrl.Stall, 1)
	// isS2R marks special-register reads, the one classInt shape with its
	// own latency. The latency itself lives on the Device, so the decoded
	// program stays device-independent and shareable.
	isS2R  bool
	braOfs int // pc delta of a uniform BRA
	// mayBank gates the dynamic register-bank-conflict check: false when
	// the static (no-reuse) live source set can never put three reads in
	// one bank, which is exact because operand reuse only shrinks the set.
	mayBank bool
	// reuseRegs is the operand-reuse latch image this instruction leaves
	// behind when its reuse flags are set (Rs1 slot pre-blanked for
	// immediate/constant operands).
	reuseRegs [3]sass.Reg
	in        *sass.Inst
	mi        *instMeta
}

// program is one decoded, pre-analyzed kernel: the instruction slice, the
// per-pc metadata, the basic-block partition with its threaded-code
// handler chains, and the highest register index the code touches. It is
// immutable after construction and shared by all concurrent Sims.
type program struct {
	insts  []sass.Inst
	meta   []instMeta
	nodes  []node
	blocks []progBlock
	// maxRegUsed is the architectural register-array size the code
	// requires (minimum 16), regardless of the declared NumRegs.
	maxRegUsed int
}

// progEntry is one slot of the decoded-program cache. The sync.Once gives
// singleflight semantics: the first Launch of a kernel decodes while
// concurrent Launches of the same kernel wait, so the pure decode work
// runs exactly once per *cubin.Kernel process-wide (keyed like the
// kernel-generation cache in internal/kernels, which already shares one
// *cubin.Kernel across all callers).
type progEntry struct {
	once sync.Once
	p    *program
	err  error
}

// progCache maps *cubin.Kernel to *progEntry. Kernels are immutable by
// contract (see the Sim concurrency notes), so identity keying is sound.
// Entries are never evicted: the key space is bounded by the distinct
// kernels a process generates, the same policy as kernels' gencache.
var progCache sync.Map

// decodeProgram returns the cached decoded program for k, building it at
// most once per kernel. The Load fast path keeps cache hits — every
// steady-state Launch — allocation-free; only a kernel's first Launch
// takes the LoadOrStore path that may allocate the entry.
func decodeProgram(k *cubin.Kernel) (*program, error) {
	var e *progEntry
	if v, ok := progCache.Load(k); ok {
		e = v.(*progEntry)
	} else {
		v, _ := progCache.LoadOrStore(k, &progEntry{})
		e = v.(*progEntry)
	}
	e.once.Do(func() { e.p, e.err = buildProgram(k) })
	return e.p, e.err
}

func buildProgram(k *cubin.Kernel) (*program, error) {
	insts, err := k.Decode()
	if err != nil {
		return nil, err
	}
	return newProgram(insts), nil
}

// newProgram analyzes a decoded instruction stream: per-pc metadata,
// register sizing, the basic-block partition and the handler chains.
func newProgram(insts []sass.Inst) *program {
	p := &program{
		insts:      insts,
		meta:       make([]instMeta, len(insts)),
		maxRegUsed: 16,
	}
	for i := range insts {
		in := &insts[i]
		mi := &p.meta[i]
		mi.uniform = in.Pred == sass.PT && !in.PredNeg
		mi.srcRegs = sourceRegs(in)
		mi.dstRegs = destRegs(in)
		for _, r := range mi.srcRegs {
			if int(r)+1 > p.maxRegUsed {
				p.maxRegUsed = int(r) + 1
			}
		}
		for _, r := range mi.dstRegs {
			if int(r)+1 > p.maxRegUsed {
				p.maxRegUsed = int(r) + 1
			}
		}
	}
	buildBlocks(p)
	buildNodes(p)
	return p
}

// buildBlocks partitions the instruction stream into basic blocks:
// control flow (BRA, EXIT) and barriers (BAR) end a block, and every
// branch target starts one.
func buildBlocks(p *program) {
	n := len(p.insts)
	if n == 0 {
		return
	}
	starts := make([]bool, n+1)
	starts[0] = true
	for pc := range p.insts {
		in := &p.insts[pc]
		switch in.Op {
		case sass.OpBRA:
			if t := pc + 1 + int(int32(in.Imm)); t >= 0 && t < n {
				starts[t] = true
			}
			starts[pc+1] = true
		case sass.OpEXIT, sass.OpBAR:
			starts[pc+1] = true
		}
	}
	begin := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || starts[pc] {
			p.blocks = append(p.blocks, progBlock{start: begin, end: pc})
			begin = pc
		}
	}
}

// buildNodes pre-resolves the per-block handler chains: one node per
// instruction, handler selected for the instruction's exact shape with
// all scheduling metadata extracted from the control code.
func buildNodes(p *program) {
	p.nodes = make([]node, len(p.insts))
	for pc := range p.insts {
		in := &p.insts[pc]
		mi := &p.meta[pc]
		nd := &p.nodes[pc]
		switch {
		case in.Op.IsMemory():
			nd.class = classMem
		case isFP(in.Op):
			nd.class = classFP
		case isInt(in.Op):
			nd.class = classInt
		}
		nd.isLDG = in.Op == sass.OpLDG
		nd.isFFMA = in.Op == sass.OpFFMA
		nd.yield = in.Ctrl.Yield
		nd.waitMask = in.Ctrl.WaitMask
		nd.reuse = in.Ctrl.Reuse
		nd.writeBar = in.Ctrl.WriteBar
		nd.readBar = in.Ctrl.ReadBar
		nd.stall = int64(in.Ctrl.Stall)
		if nd.stall < 1 {
			nd.stall = 1
		}
		nd.isS2R = in.Op == sass.OpS2R
		if in.Op == sass.OpBRA {
			nd.braOfs = int(int32(in.Imm))
		}
		if nd.class == classFP {
			nd.mayBank = mayBankConflict(in)
		}
		nd.reuseRegs = [3]sass.Reg{in.Rs0, in.Rs1, in.Rs2}
		if in.SrcMode != sass.SrcReg {
			nd.reuseRegs[1] = sass.RZ
		}
		nd.in = in
		nd.mi = mi
		nd.fn = selectHandler(in, mi)
	}
}

// mayBankConflict reports whether the instruction's static live source
// set — three distinct non-RZ register reads, all with the same index
// parity — permits a register-bank conflict at all. Operand reuse only
// removes reads, so a static false is exact: the dynamic check in
// regBankConflict can never return true for this instruction.
func mayBankConflict(in *sass.Inst) bool {
	slots := [3]sass.Reg{in.Rs0, sass.RZ, in.Rs2}
	if in.SrcMode == sass.SrcReg {
		slots[1] = in.Rs1
	}
	var live [3]sass.Reg
	n := 0
	for _, r := range slots {
		if r == sass.RZ {
			continue
		}
		dup := false
		for _, e := range live[:n] {
			if e == r {
				dup = true
				break
			}
		}
		if !dup {
			live[n] = r
			n++
		}
	}
	if n < 3 {
		return false
	}
	parity := live[0] & 1
	return live[1]&1 == parity && live[2]&1 == parity
}
