package sasscheck

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cubin"
	"repro/internal/sass"
)

// This file is the second stage of the checker: an abstract interpreter
// over the instruction stream that proves shared-memory race freedom,
// bounds safety, and barrier convergence for a whole thread block. It
// executes the kernel once per control-flow path with every thread of
// the block tracked simultaneously (see absval.go for the domains),
// collecting the shared-memory accesses of each barrier-delimited
// interval and checking them at every BAR.SYNC and at kernel exit
// (race.go). Uniform-unknown branches fork both paths; concrete
// branches (the generated kernels' counted loops) execute exactly;
// divergent branches stop the path with a diagnostic, matching the
// simulator's rejection of divergent control flow.
//
// The interpreter is sound in the "verified clean" direction: if
// VerifyKernel returns no Error diagnostics, then no execution of the
// kernel (under the machine model internal/gpu implements) exhibits a
// shared-memory race, out-of-bounds access, or divergent barrier. Where the analysis
// cannot prove that — unresolvable addresses, path explosion, widened
// loops it cannot bound — it says so with absint-limit rather than
// staying silent.

// VerifyOpts configures the abstract interpreter.
type VerifyOpts struct {
	// Threads is the block size the kernel is launched with; 0 means
	// the generated kernels' default of 256.
	Threads int
	// NoExemptions disables the exemption list (see exemptions.go);
	// used by the is-still-needed test.
	NoExemptions bool
}

// VerifyKernel runs the race/bounds/divergence/bank-conflict verifier
// over an assembled kernel: every STS/LDS must stay inside the shared
// memory its metadata declares. A nil result means every path is proven
// clean.
func VerifyKernel(k *cubin.Kernel, opts VerifyOpts) ([]Diag, error) {
	insts, err := k.Decode()
	if err != nil {
		return nil, fmt.Errorf("sasscheck: %s does not decode: %w", k.Name, err)
	}
	threads := opts.Threads
	if threads <= 0 {
		threads = 256
	}
	if threads > 1024 {
		threads = 1024
	}
	// Round up to whole warps; partial warps do not occur in this
	// repository's launches.
	threads = (threads + 31) &^ 31
	ai := &interp{
		insts:     insts,
		opts:      opts,
		smemBytes: k.SmemBytes,
		threads:   threads,
		diags:     nil,
		seenDiag:  map[string]bool{},
		seenRace:  map[[2]int]bool{},
		maxSteps:  256*len(insts) + 4096,
		visits:    map[int]int{},
		widened:   map[int]*absState{},
		seen:      map[int][]*absState{},
		targets:   branchTargets(insts),
	}
	ai.run()
	ds := ai.diags
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].PC != ds[j].PC {
			return ds[i].PC < ds[j].PC
		}
		return ds[i].Rule < ds[j].Rule
	})
	return ds, nil
}

// branchTargets returns the set of pcs that some BRA can jump to; every
// cycle in the CFG passes through at least one, so they are where the
// interpreter deduplicates and widens states.
func branchTargets(insts []sass.Inst) map[int]bool {
	ts := map[int]bool{}
	for i := range insts {
		if insts[i].Op == sass.OpBRA {
			t := i + 1 + int(int32(insts[i].Imm))
			if t >= 0 && t < len(insts) {
				ts[t] = true
			}
		}
	}
	return ts
}

// intervalAccess is one logged shared-memory access of the current
// barrier interval.
type intervalAccess struct {
	pc     int
	write  bool
	width  int    // bytes per lane
	addr   absVal // vConst, vVec, or vStride
	active []bool // nil = every thread active
}

// absState is the abstract machine state of one explored path: one pc
// for the whole block (control flow must be block-uniform to proceed),
// per-thread register and predicate values, and the access log of the
// barrier interval in progress.
type absState struct {
	pc    int
	phase int
	regs  [256]absVal
	preds [sass.NumPred]absPred
	log   []intervalAccess
}

func (s *absState) clone() *absState {
	ns := *s
	ns.log = append([]intervalAccess(nil), s.log...)
	return &ns
}

func eqState(a, b *absState) bool {
	if a.pc != b.pc || a.phase != b.phase || len(a.log) != len(b.log) {
		return false
	}
	for i := range a.regs {
		if !eqVal(a.regs[i], b.regs[i]) {
			return false
		}
	}
	for i := range a.preds {
		if !eqPred(a.preds[i], b.preds[i]) {
			return false
		}
	}
	for i := range a.log {
		la, lb := &a.log[i], &b.log[i]
		if la.pc != lb.pc || la.write != lb.write || la.width != lb.width ||
			!eqVal(la.addr, lb.addr) || !eqBoolSlice(la.active, lb.active) {
			return false
		}
	}
	return true
}

func eqBoolSlice(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// widenAfter is how many distinct states may arrive at one widening
// point before joins start; it must exceed the trip count of the
// generated kernels' counted loops (GEMM runs K/8 = 8 iterations on the
// quick problem) so those execute concretely.
const widenAfter = 12

// maxLivePaths bounds the disjunctive exploration; the generated
// kernels branch concretely and never fork at all.
const maxLivePaths = 256

type interp struct {
	insts     []sass.Inst
	opts      VerifyOpts
	smemBytes int // declared shared memory
	threads   int
	diags     []Diag
	seenDiag  map[string]bool
	// seenRace dedupes race diagnostics per instruction pair with a
	// typed key: raceDiag is hit once per overlapping byte-range pair,
	// which is quadratic in the worst case, so it cannot afford the
	// string formatting seenDiag keys need.
	seenRace map[[2]int]bool
	steps    int
	maxSteps int
	visits   map[int]int
	widened  map[int]*absState
	seen     map[int][]*absState
	targets  map[int]bool
}

func (ai *interp) diag(d Diag) {
	key := fmt.Sprintf("%s|%d|%s", d.Rule, d.PC, d.Msg)
	if ai.seenDiag[key] {
		return
	}
	ai.seenDiag[key] = true
	ai.diags = append(ai.diags, d)
}

func (ai *interp) limit(pc int, msg string) {
	ai.diag(Diag{Rule: "absint-limit", PC: pc, Sev: Error, Msg: msg,
		Hint: "simplify the control flow or address arithmetic so the verifier can resolve it, or verify the property dynamically with gpu.SmemOracle"})
}

func (ai *interp) run() {
	start := &absState{pc: 0}
	for r := range start.regs {
		start.regs[r] = constVal(0)
	}
	for p := range start.preds {
		start.preds[p] = constPred(false)
	}
	work := []*absState{start}
	for len(work) > 0 {
		s := work[len(work)-1]
		work = work[:len(work)-1]
	path:
		for {
			if ai.steps >= ai.maxSteps {
				ai.limit(-1, fmt.Sprintf("analysis exceeded %d steps without converging", ai.maxSteps))
				return
			}
			ai.steps++
			if s.pc < 0 || s.pc >= len(ai.insts) {
				break // running off the stream is the no-exit rule's diagnostic
			}
			if ai.targets[s.pc] {
				ns, stop := ai.arrive(s)
				if stop {
					break
				}
				s = ns
			}
			cont, forks := ai.step(s)
			if len(forks) > 0 {
				if len(work)+len(forks) > maxLivePaths {
					ai.limit(s.pc, "too many unresolved branch outcomes to explore")
				} else {
					work = append(work, forks...)
				}
			}
			if !cont {
				break path
			}
		}
	}
}

// arrive handles a state reaching a widening point: stop if an equal
// state was already explored, widen if the point is running hot.
func (ai *interp) arrive(s *absState) (*absState, bool) {
	for _, old := range ai.seen[s.pc] {
		if eqState(old, s) {
			return s, true
		}
	}
	ai.visits[s.pc]++
	if ai.visits[s.pc] > widenAfter {
		w := ai.widened[s.pc]
		if w == nil {
			ai.widened[s.pc] = s.clone()
		} else {
			j := ai.widenJoin(w, s)
			if eqState(j, w) {
				return s, true // converged
			}
			ai.widened[s.pc] = j
			s = j.clone()
		}
	}
	ai.seen[s.pc] = append(ai.seen[s.pc], s.clone())
	return s, false
}

// widenJoin joins two states at a widening point. Register values widen
// through the stride domain (absval.go); the access logs are unioned,
// which over-approximates the interval's accesses and is therefore
// sound for race checking.
func (ai *interp) widenJoin(a, b *absState) *absState {
	j := &absState{pc: a.pc, phase: a.phase}
	if b.phase > j.phase {
		j.phase = b.phase
	}
	for r := range j.regs {
		j.regs[r] = joinWiden(a.regs[r], b.regs[r], ai.threads)
	}
	for p := range j.preds {
		j.preds[p] = joinPredWiden(a.preds[p], b.preds[p])
	}
	j.log = append(j.log, a.log...)
	for i := range b.log {
		dup := false
		for k := range a.log {
			la, lb := &a.log[k], &b.log[i]
			if la.pc == lb.pc && la.write == lb.write && la.width == lb.width &&
				eqVal(la.addr, lb.addr) && eqBoolSlice(la.active, lb.active) {
				dup = true
				break
			}
		}
		if !dup {
			j.log = append(j.log, b.log[i])
		}
	}
	return j
}

// guard evaluates the instruction's guard predicate.
func (s *absState) guard(in *sass.Inst) absPred {
	var p absPred
	if in.Pred == sass.PT {
		p = constPred(true)
	} else {
		p = s.preds[in.Pred]
	}
	if in.PredNeg {
		switch p.kind {
		case pConst:
			p = constPred(!p.b)
		case pVec:
			nv := make([]bool, len(p.vec))
			for i, v := range p.vec {
				nv[i] = !v
			}
			p = absPred{kind: pVec, vec: nv}
		}
	}
	return p
}

func (s *absState) readReg(r sass.Reg) absVal {
	if r == sass.RZ {
		return constVal(0)
	}
	return s.regs[r]
}

func (ai *interp) operandB(s *absState, in *sass.Inst) absVal {
	switch in.SrcMode {
	case sass.SrcImm:
		return constVal(in.Imm)
	case sass.SrcConst:
		if in.ConstBank != 0 {
			return constVal(0) // the machine model reads other banks as zero
		}
		return unkVal() // kernel parameter: unknown but block-uniform
	default:
		return s.readReg(in.Rs1)
	}
}

// ternop lifts a concrete three-operand function over the value domain.
func (ai *interp) ternop(a, b, c absVal, f func(x, y, z uint32) uint32) absVal {
	if a.exact() && b.exact() && c.exact() {
		if a.kind == vConst && b.kind == vConst && c.kind == vConst {
			return constVal(f(a.c, b.c, c.c))
		}
		vec := make([]uint32, ai.threads)
		for t := range vec {
			vec[t] = f(a.at(t), b.at(t), c.at(t))
		}
		return vecVal(vec)
	}
	if a.uniform() && b.uniform() && c.uniform() {
		return unkVal()
	}
	return topVal()
}

func (ai *interp) binop(a, b absVal, f func(x, y uint32) uint32) absVal {
	return ai.ternop(a, b, constVal(0), func(x, y, _ uint32) uint32 { return f(x, y) })
}

// addStride evaluates a three-way sum when exactly one operand is a
// stride set and the rest are known uniform: the set shifts. This keeps
// widened loop pointers analyzable across their increment.
func addStride(a, b, c absVal) (absVal, bool) {
	var st absVal
	found := false
	sum := uint32(0)
	for _, v := range []absVal{a, b, c} {
		switch v.kind {
		case vStride:
			if found {
				return absVal{}, false
			}
			st, found = v, true
		case vConst:
			sum += v.c
		default:
			return absVal{}, false
		}
	}
	if !found {
		return absVal{}, false
	}
	if st.vec == nil {
		st.c += sum
	} else {
		nv := make([]uint32, len(st.vec))
		for i, x := range st.vec {
			nv[i] = x + sum
		}
		st.vec = nv
	}
	return st, true
}

// mergeWrite computes the post-value of a guarded register write.
func (ai *interp) mergeWrite(old, nv absVal, g absPred) absVal {
	switch g.kind {
	case pConst:
		if g.b {
			return nv
		}
		return old
	case pVec:
		if old.exact() && nv.exact() {
			vec := make([]uint32, ai.threads)
			for t := range vec {
				if g.at(t) {
					vec[t] = nv.at(t)
				} else {
					vec[t] = old.at(t)
				}
			}
			return vecVal(vec)
		}
		if eqVal(old, nv) {
			return old
		}
		return topVal()
	case pUnk:
		return joinPossibility(old, nv, ai.threads)
	default: // pTop: unknown, possibly divergent selection
		if eqVal(old, nv) {
			return old
		}
		return topVal()
	}
}

func (ai *interp) writeReg(s *absState, rd sass.Reg, nv absVal, g absPred) {
	if rd == sass.RZ {
		return
	}
	s.regs[rd] = ai.mergeWrite(s.regs[rd], nv, g)
}

func mergeWritePred(old, nv absPred, g absPred, threads int) absPred {
	switch g.kind {
	case pConst:
		if g.b {
			return nv
		}
		return old
	case pVec:
		if old.exact() && nv.exact() {
			vec := make([]bool, threads)
			for t := range vec {
				if g.at(t) {
					vec[t] = nv.at(t)
				} else {
					vec[t] = old.at(t)
				}
			}
			return vecPred(vec)
		}
		if eqPred(old, nv) {
			return old
		}
		return topPred()
	case pUnk:
		return joinPredPossibility(old, nv)
	default:
		if eqPred(old, nv) {
			return old
		}
		return topPred()
	}
}

// fGuardActive reports whether a value-producing instruction can be
// skipped entirely (guard statically false everywhere).
func deadGuard(g absPred) bool { return g.kind == pConst && !g.b }

// step executes one instruction. It returns whether the path continues
// and any forked sibling paths (unknown-but-uniform branch outcomes).
func (ai *interp) step(s *absState) (bool, []*absState) {
	in := &ai.insts[s.pc]
	g := s.guard(in)
	pc := s.pc
	s.pc++
	switch in.Op {
	case sass.OpNOP:
	case sass.OpEXIT:
		switch g.kind {
		case pConst:
			if g.b {
				ai.checkInterval(s, pc)
				return false, nil
			}
		case pUnk:
			// The block may exit here: check the interval so far, then
			// keep exploring the not-taken outcome.
			ai.checkInterval(s, pc)
		case pVec:
			ai.divergedCF(s, in, g, pc)
			return false, nil
		default:
			ai.limit(pc, "cannot prove the EXIT guard is block-uniform")
			ai.checkInterval(s, pc)
		}
	case sass.OpBRA:
		target := pc + 1 + int(int32(in.Imm))
		switch g.kind {
		case pConst:
			if g.b {
				s.pc = target
			}
		case pUnk:
			taken := s.clone()
			taken.pc = target
			return true, []*absState{taken}
		case pVec:
			ai.divergedCF(s, in, g, pc)
			return false, nil
		default:
			ai.limit(pc, "cannot prove the branch guard is block-uniform")
			taken := s.clone()
			taken.pc = target
			return true, []*absState{taken}
		}
	case sass.OpBAR:
		// The machine model synchronizes at BAR regardless of the guard
		// value, but a guard that can diverge is a correctness bug on
		// real hardware (lanes skip the barrier) — rule (c).
		switch g.kind {
		case pVec:
			w := divergentWarp(g, ai.threads)
			if w >= 0 {
				ai.diag(Diag{Rule: "bar-divergent", PC: pc, Sev: Error,
					Msg:  fmt.Sprintf("barrier guard %s diverges within warp %d", guardName(in), w),
					Hint: "guard BAR.SYNC with PT or a predicate that is uniform across the block"})
			} else {
				ai.diag(Diag{Rule: "bar-divergent", PC: pc, Sev: Error,
					Msg:  fmt.Sprintf("barrier guard %s differs between warps of the block", guardName(in)),
					Hint: "guard BAR.SYNC with PT or a predicate that is uniform across the block"})
			}
		case pTop:
			ai.diag(Diag{Rule: "bar-divergent", PC: pc, Sev: Error,
				Msg:  fmt.Sprintf("cannot prove barrier guard %s is uniform", guardName(in)),
				Hint: "guard BAR.SYNC with PT or a predicate that is uniform across the block"})
		}
		ai.checkInterval(s, pc)
		s.log = nil
		s.phase++
	case sass.OpFFMA:
		f := func(x, y, z uint32) uint32 {
			a, b, c := math.Float32frombits(x), math.Float32frombits(y), math.Float32frombits(z)
			if in.NegA {
				a = -a
			}
			if in.NegB {
				b = -b
			}
			return math.Float32bits(a*b + c)
		}
		ai.writeReg(s, in.Rd, ai.ternop(s.readReg(in.Rs0), ai.operandB(s, in), s.readReg(in.Rs2), f), g)
	case sass.OpFADD:
		f := func(x, y uint32) uint32 {
			a, b := math.Float32frombits(x), math.Float32frombits(y)
			if in.NegA {
				a = -a
			}
			if in.NegB {
				b = -b
			}
			return math.Float32bits(a + b)
		}
		ai.writeReg(s, in.Rd, ai.binop(s.readReg(in.Rs0), ai.operandB(s, in), f), g)
	case sass.OpFMUL:
		f := func(x, y uint32) uint32 {
			a, b := math.Float32frombits(x), math.Float32frombits(y)
			if in.NegA {
				a = -a
			}
			if in.NegB {
				b = -b
			}
			return math.Float32bits(a * b)
		}
		ai.writeReg(s, in.Rd, ai.binop(s.readReg(in.Rs0), ai.operandB(s, in), f), g)
	case sass.OpMOV:
		ai.writeReg(s, in.Rd, ai.operandB(s, in), g)
	case sass.OpIADD3:
		a, b, c := s.readReg(in.Rs0), ai.operandB(s, in), s.readReg(in.Rs2)
		nv, ok := addStride(a, b, c)
		if !ok {
			nv = ai.ternop(a, b, c, func(x, y, z uint32) uint32 { return x + y + z })
		}
		ai.writeReg(s, in.Rd, nv, g)
	case sass.OpIMAD:
		f := func(x, y, z uint32) uint32 {
			if in.ShRight { // IMAD.HI
				return uint32((uint64(x)*uint64(y))>>32) + z
			}
			return x*y + z
		}
		ai.writeReg(s, in.Rd, ai.ternop(s.readReg(in.Rs0), ai.operandB(s, in), s.readReg(in.Rs2), f), g)
	case sass.OpISETP:
		cmp := ai.evalCmp(s.readReg(in.Rs0), ai.operandB(s, in), in.Cmp)
		if in.SrcPred != sass.PT {
			cmp = ai.andPred(cmp, s.preds[in.SrcPred])
		}
		if in.Pd != sass.PT {
			s.preds[in.Pd] = mergeWritePred(s.preds[in.Pd], cmp, g, ai.threads)
		}
	case sass.OpLOP3:
		f := func(x, y, z uint32) uint32 { return lop3Eval(x, y, z, in.Lut) }
		ai.writeReg(s, in.Rd, ai.ternop(s.readReg(in.Rs0), ai.operandB(s, in), s.readReg(in.Rs2), f), g)
	case sass.OpSHF:
		f := func(x, y uint32) uint32 {
			amt := y & 31
			if in.ShRight {
				return x >> amt
			}
			return x << amt
		}
		ai.writeReg(s, in.Rd, ai.binop(s.readReg(in.Rs0), ai.operandB(s, in), f), g)
	case sass.OpSEL:
		var sel absPred
		if in.SrcPred == sass.PT {
			sel = constPred(true)
		} else {
			sel = s.preds[in.SrcPred]
		}
		// SEL picks b when the predicate is false, so merge "write a
		// over b" under sel.
		nv := ai.mergeWrite(ai.operandB(s, in), s.readReg(in.Rs0), sel)
		ai.writeReg(s, in.Rd, nv, g)
	case sass.OpS2R:
		var nv absVal
		switch int(in.Imm) {
		case sass.SRTidX:
			vec := make([]uint32, ai.threads)
			for t := range vec {
				vec[t] = uint32(t)
			}
			nv = vecVal(vec)
		case sass.SRLaneID:
			vec := make([]uint32, ai.threads)
			for t := range vec {
				vec[t] = uint32(t % 32)
			}
			nv = vecVal(vec)
		case sass.SRCtaidX, sass.SRCtaidY, sass.SRCtaidZ:
			nv = unkVal() // block index: unknown, uniform within the block
		default:
			nv = constVal(0) // TID.Y/Z and unknown indices read zero
		}
		ai.writeReg(s, in.Rd, nv, g)
	case sass.OpP2R:
		nv := ai.evalP2R(s, in)
		ai.writeReg(s, in.Rd, nv, g)
	case sass.OpR2P:
		v := s.readReg(in.Rs0)
		for p := 0; p < sass.NumPred; p++ {
			if in.Imm&(1<<uint(p)) == 0 {
				continue
			}
			var np absPred
			switch v.kind {
			case vConst:
				np = constPred(v.c&(1<<uint(p)) != 0)
			case vVec:
				vec := make([]bool, ai.threads)
				for t := range vec {
					vec[t] = v.vec[t]&(1<<uint(p)) != 0
				}
				np = vecPred(vec)
			case vUnk:
				np = unkPred()
			default:
				np = topPred()
			}
			s.preds[p] = mergeWritePred(s.preds[p], np, g, ai.threads)
		}
	case sass.OpLDG:
		if !deadGuard(g) {
			for j := 0; j < in.Width.Regs(); j++ {
				ai.writeReg(s, in.Rd+sass.Reg(j), topVal(), g)
			}
		}
	case sass.OpSTG:
		// Global stores are outside the verifier's scope.
	case sass.OpLDS:
		if !deadGuard(g) {
			ai.memAccess(s, in, g, pc, false)
			for j := 0; j < in.Width.Regs(); j++ {
				ai.writeReg(s, in.Rd+sass.Reg(j), topVal(), g)
			}
		}
	case sass.OpSTS:
		if !deadGuard(g) {
			ai.memAccess(s, in, g, pc, true)
		}
	default:
		// Unknown opcode: bad-opcode (structural pass) already flags
		// it; treat it as a no-op here so the interpreter never stops
		// on inputs Check rejects.
	}
	return true, nil
}

// divergedCF reports control flow whose guard provably diverges: the
// machine model rejects intra-warp divergence outright, and warps
// taking different paths leave the lockstep block model.
func (ai *interp) divergedCF(s *absState, in *sass.Inst, g absPred, pc int) {
	if w := divergentWarp(g, ai.threads); w >= 0 {
		ai.limit(pc, fmt.Sprintf("%s guard %s diverges within warp %d; the machine model rejects divergent control flow", in.Op, guardName(in), w))
	} else {
		ai.limit(pc, fmt.Sprintf("%s guard %s makes warps of the block take different paths; not modeled", in.Op, guardName(in)))
	}
}

// divergentWarp returns the first warp whose lanes disagree on an exact
// predicate, or -1 when every warp is internally uniform.
func divergentWarp(g absPred, threads int) int {
	if g.kind != pVec {
		return -1
	}
	for w := 0; w*32 < threads; w++ {
		first := g.vec[w*32]
		for l := 1; l < 32 && w*32+l < threads; l++ {
			if g.vec[w*32+l] != first {
				return w
			}
		}
	}
	return -1
}

func guardName(in *sass.Inst) string {
	n := ""
	if in.PredNeg {
		n = "!"
	}
	return "@" + n + in.Pred.String()
}

func (ai *interp) evalCmp(a, b absVal, op sass.CmpOp) absPred {
	if a.exact() && b.exact() {
		f := func(x, y uint32) bool {
			xa, yb := int32(x), int32(y)
			switch op {
			case sass.CmpLT:
				return xa < yb
			case sass.CmpEQ:
				return xa == yb
			case sass.CmpLE:
				return xa <= yb
			case sass.CmpGT:
				return xa > yb
			case sass.CmpNE:
				return xa != yb
			default:
				return xa >= yb
			}
		}
		if a.kind == vConst && b.kind == vConst {
			return constPred(f(a.c, b.c))
		}
		vec := make([]bool, ai.threads)
		for t := range vec {
			vec[t] = f(a.at(t), b.at(t))
		}
		return vecPred(vec)
	}
	if a.uniform() && b.uniform() {
		return unkPred()
	}
	return topPred()
}

func (ai *interp) andPred(a, b absPred) absPred {
	if a.kind == pConst && !a.b {
		return constPred(false)
	}
	if b.kind == pConst && !b.b {
		return constPred(false)
	}
	if a.exact() && b.exact() {
		vec := make([]bool, ai.threads)
		for t := range vec {
			vec[t] = a.at(t) && b.at(t)
		}
		return vecPred(vec)
	}
	if a.uniform() && b.uniform() {
		return unkPred()
	}
	return topPred()
}

// evalP2R packs the predicate file into a register, masked by Imm.
func (ai *interp) evalP2R(s *absState, in *sass.Inst) absVal {
	allExact, allUniform := true, true
	for p := 0; p < sass.NumPred; p++ {
		if in.Imm&(1<<uint(p)) == 0 {
			continue
		}
		pr := s.preds[p]
		if !pr.exact() {
			allExact = false
		}
		if !pr.uniform() && pr.kind != pVec {
			allUniform = false // pTop
		}
		if pr.kind == pVec {
			allUniform = false // divergent known bits mixed with unknowns
		}
	}
	if allExact {
		vec := make([]uint32, ai.threads)
		for t := range vec {
			var v uint32
			for p := 0; p < sass.NumPred; p++ {
				if in.Imm&(1<<uint(p)) != 0 && s.preds[p].at(t) {
					v |= 1 << uint(p)
				}
			}
			vec[t] = v
		}
		return vecVal(vec)
	}
	if allUniform {
		return unkVal()
	}
	// A mix of known-divergent and unknown-uniform bits is neither
	// uniform nor exact.
	return topVal()
}

// lop3Eval is the 3-input truth-table evaluation, matching the machine
// model's semantics bit for bit.
func lop3Eval(a, b, c uint32, lut uint8) uint32 {
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
