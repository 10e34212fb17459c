// Package turingas is this repository's re-implementation of the paper's
// TuringAs: an assembler from SASS source text to loadable cubin modules
// (Section 5.3). It supports the feature list the paper describes —
// control-code prefixes on every instruction, register name mapping
// (".alias"), named constants (".equ"), labels and branches, and multiple
// kernels per file. The paper's "inline Python" code generation is
// provided by the Go kernel generators in internal/kernels, which emit
// source for this assembler.
//
// Assembling keeps a line memo per worker. An instruction line that
// assembles without error and names no label, in a module that has
// defined no .alias or .equ so far, encodes the same way wherever it
// appears, so each such distinct line is parsed and encoded once and
// later copies only append the stored word. Kernel variants differ in a
// few knob-driven lines: a tune sweep's sources are over 90% repeats.
// The memo lives in pooled assembler state, so concurrent callers never
// share one, and a GC may drop it.
//
// Source grammar (line oriented; '#' and '//' start comments):
//
//	.kernel ftf            begin a kernel
//	.regs 253              per-thread register count (default: inferred)
//	.smem 49152            static shared memory bytes
//	.params 40             parameter-area bytes (constant bank 0, +0x160)
//	.alias idx, R3         name a register (or predicate)
//	.equ BK, 64            define a numeric constant
//	loop:                  label
//	--:-:1:-:2  @!P0 LDG.128 R4, [R8+0x10];
//	01:-:-:Y:4  FFMA R1, R65, R80.reuse, R1;
//	.endkernel
//
// The control prefix is wait:read:write:yield:stall — a two-digit hex
// barrier wait mask (or --), the read- and write-barrier indices (or -),
// Y/- for the yield flag, and the decimal stall count.
package turingas

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"unicode"

	"repro/internal/cubin"
	"repro/internal/sass"
)

// Assemble parses and encodes a full module. The module keeps no
// reference to src.
func Assemble(src string) (*cubin.Module, error) {
	a := asmPool.Get().(*asm)
	defer a.release()
	return a.assemble(src)
}

// asmPool holds assembler states between modules, each with its line
// memo.
var asmPool = sync.Pool{New: func() any { return newAsm() }}

func newAsm() *asm { return &asm{memo: &memo{}} }

// release resets a and returns it to asmPool.
func (a *asm) release() {
	a.reset()
	asmPool.Put(a)
}

// reset drops everything of the last module, all of which points into
// its source, and keeps the memo and the branch list's capacity.
func (a *asm) reset() {
	clear(a.branches[:cap(a.branches)])
	*a = asm{memo: a.memo, branches: a.branches[:0]}
}

// memo maps instruction lines to their encodings: the map holds an
// index into lines, so its slots stay small. Both are sized by the line
// count of the first module the memo serves (see size): a generated
// kernel's 2.2k lines give a map that holds a full sweep's 3.2k
// distinct lines without growing, while reserving the bound up front
// cost a cold worker 0.6 MB of pages it never filled. Its keys are
// copied into chunks of one arena, so no key pins a source and filling
// the memo costs an allocation per chunk, not per line.
type memo struct {
	index map[string]int32 // line -> position in lines
	lines []memoLine
	keys  strings.Builder // the current chunk
}

// memoLine is what a memo hit needs of an instruction line: its word
// and its footprint for track.
type memoLine struct {
	word sass.Word
	fp   footprint
}

const (
	// memoLines bounds a memo: a full tune sweep has about 3.2k
	// distinct lines, and a memo that fills up starts over.
	memoLines = 1 << 13
	memoChunk = 64 << 10 // key arena chunk bytes
)

// size gives a memo that has no map yet room for n lines, up to its
// bound; a sized memo keeps what it has.
func (m *memo) size(n int) {
	if m.index == nil {
		n = min(n, memoLines)
		m.index = make(map[string]int32, n)
		m.lines = make([]memoLine, 0, n)
	}
}

func (m *memo) get(line string) (memoLine, bool) {
	i, ok := m.index[line]
	if !ok {
		return memoLine{}, false
	}
	return m.lines[i], true
}

func (m *memo) add(line string, l memoLine) {
	if len(m.lines) >= memoLines {
		m.reset()
	}
	if m.keys.Cap()-m.keys.Len() < len(line) {
		m.keys.Reset()
		m.keys.Grow(max(memoChunk, len(line)))
	}
	n := m.keys.Len()
	m.keys.WriteString(line)
	m.index[m.keys.String()[n:]] = int32(len(m.lines))
	m.lines = append(m.lines, l)
}

func (m *memo) reset() {
	clear(m.index)
	m.lines = m.lines[:0]
	m.keys.Reset()
}

func (a *asm) assemble(src string) (*cubin.Module, error) {
	mod := &cubin.Module{}
	// One code buffer serves every kernel in the module, sized once by
	// the source's line count: memory stays linear in the source, the
	// buffer never grows, and each kernel's code is a slice of it.
	lines := strings.Count(src, "\n") + 1
	a.code = make([]sass.Word, 0, lines)
	a.memo.size(lines)
	// Generated kernels carry no comments, which one scan of the source
	// shows, and then no line needs stripping.
	comments := strings.IndexByte(src, '#') >= 0 || strings.Contains(src, "//")
	for num, rest, more := 1, src, true; more; num++ {
		raw := rest
		if i := strings.IndexByte(rest, '\n'); i >= 0 {
			raw, rest = rest[:i], rest[i+1:]
		} else {
			more = false
		}
		var line string
		if comments {
			line = stripComment(raw)
		} else {
			line = trimSpace(raw)
		}
		if line == "" {
			continue
		}
		if err := a.line(mod, line); err != nil {
			return nil, fmt.Errorf("line %d: %w (%q)", num, err, strings.TrimSpace(raw))
		}
	}
	if a.cur != nil {
		return nil, fmt.Errorf("kernel %q missing .endkernel", a.cur.name)
	}
	if len(mod.Kernels) == 0 {
		return nil, fmt.Errorf("turingas: no kernels in source")
	}
	return mod, nil
}

// AssembleKernel assembles a module expected to hold exactly one kernel.
func AssembleKernel(src string) (*cubin.Kernel, error) {
	mod, err := Assemble(src)
	if err != nil {
		return nil, err
	}
	if len(mod.Kernels) != 1 {
		return nil, fmt.Errorf("turingas: expected 1 kernel, found %d", len(mod.Kernels))
	}
	return &mod.Kernels[0], nil
}

// Disassemble renders a kernel back to source that re-assembles to the
// same encoding: control prefixes are emitted on every line and branch
// targets become synthetic labels.
func Disassemble(k *cubin.Kernel) (string, error) {
	insts, err := k.Decode()
	if err != nil {
		return "", err
	}
	// First pass: collect branch targets.
	labels := map[int]string{}
	for pc, in := range insts {
		if in.Op == sass.OpBRA {
			target := pc + 1 + int(int32(in.Imm))
			if target < 0 || target > len(insts) {
				return "", fmt.Errorf("turingas: branch at %d targets %d, outside the kernel", pc, target)
			}
			if _, ok := labels[target]; !ok {
				labels[target] = fmt.Sprintf("L%d", target)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, ".kernel %s\n.regs %d\n.smem %d\n.params %d\n", k.Name, k.NumRegs, k.SmemBytes, k.ParamBytes)
	for pc, in := range insts {
		if l, ok := labels[pc]; ok {
			fmt.Fprintf(&b, "%s:\n", l)
		}
		text := in.String()
		if in.Op == sass.OpBRA {
			target := pc + 1 + int(int32(in.Imm))
			guard := ""
			if in.Pred != sass.PT || in.PredNeg {
				n := ""
				if in.PredNeg {
					n = "!"
				}
				guard = fmt.Sprintf("@%s%s ", n, in.Pred)
			}
			text = fmt.Sprintf("%sBRA %s;", guard, labels[target])
		}
		fmt.Fprintf(&b, "%-14s %s\n", in.Ctrl.String(), text)
	}
	if l, ok := labels[len(insts)]; ok {
		fmt.Fprintf(&b, "%s:\n", l)
	}
	b.WriteString(".endkernel\n")
	return b.String(), nil
}

// branch is an encoded instruction awaiting its target label.
type branch struct {
	pc    int
	inst  sass.Inst
	label string
}

type kernelState struct {
	name   string
	regs   int
	smem   int
	params int
	hasBar bool
	maxReg int
	labels map[string]int
}

type asm struct {
	// memo outlives the module; it holds only lines whose encoding is
	// the same in any module (see instruction).
	memo *memo
	cur  *kernelState
	// .alias and .equ definitions; nil until the module defines one,
	// which generated kernels never do.
	aliases map[string]string
	consts  map[string]int64
	// Scratch for one line's modifiers and operands: every instruction
	// reuses them, so parsing a line allocates nothing.
	mods, ops [8]string
	// The last control prefix parsed: generated kernels use a handful,
	// and most lines repeat the one before.
	lastCtrlTok string
	lastCtrl    sass.Ctrl
	// code is the open kernel's encoded instructions, at the end of the
	// module's code buffer; branches are its label references.
	code     []sass.Word
	branches []branch
}

// stripComment cuts s at its first '#' or "//" and trims the rest.
func stripComment(s string) string {
	if i := strings.IndexByte(s, '#'); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return trimSpace(s)
}

// trimSpace is strings.TrimSpace with a fast path for the common case:
// leading spaces, if any, then bytes from '!' to 0x7f, which are never
// space, at both ends.
func trimSpace(s string) string {
	for s != "" && s[0] == ' ' {
		s = s[1:]
	}
	if s == "" || s[0]-'!' < 0x5f && s[len(s)-1]-'!' < 0x5f {
		return s
	}
	return strings.TrimSpace(s)
}

// alias resolves a name defined by .alias.
func (a *asm) alias(tok string) string {
	if len(a.aliases) != 0 {
		if r, ok := a.aliases[tok]; ok {
			return r
		}
	}
	return tok
}

func (a *asm) line(mod *cubin.Module, line string) error {
	switch {
	case strings.HasPrefix(line, "."):
		return a.directive(mod, line)
	case strings.HasSuffix(line, ":") && !strings.ContainsAny(strings.TrimSuffix(line, ":"), " \t"):
		if a.cur == nil {
			return fmt.Errorf("label outside .kernel")
		}
		name := strings.TrimSuffix(line, ":")
		if _, dup := a.cur.labels[name]; dup {
			return fmt.Errorf("duplicate label %q", name)
		}
		a.cur.labels[name] = len(a.code)
		return nil
	default:
		if a.cur == nil {
			return fmt.Errorf("instruction outside .kernel")
		}
		return a.instruction(line)
	}
}

func (a *asm) directive(mod *cubin.Module, line string) error {
	// The directive is the line's first field, as strings.Fields splits.
	dir, rest := line, ""
	if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
		dir, rest = line[:i], strings.TrimSpace(line[i:])
	}
	switch dir {
	case ".kernel":
		if a.cur != nil {
			return fmt.Errorf("nested .kernel")
		}
		if rest == "" {
			return fmt.Errorf(".kernel needs a name")
		}
		// The name is copied: a kernel outlives its source text.
		a.cur = &kernelState{name: strings.Clone(rest), labels: map[string]int{}, maxReg: -1}
		a.code, a.branches = a.code[:0], a.branches[:0]
		return nil
	case ".endkernel":
		if a.cur == nil {
			return fmt.Errorf(".endkernel without .kernel")
		}
		k, err := a.finish()
		if err != nil {
			return err
		}
		mod.Kernels = append(mod.Kernels, k)
		a.cur = nil
		return nil
	case ".regs", ".smem", ".params":
		if a.cur == nil {
			return fmt.Errorf("%s outside .kernel", dir)
		}
		v, err := parseInt(rest)
		if err != nil {
			return fmt.Errorf("%s: %w", dir, err)
		}
		switch dir {
		case ".regs":
			a.cur.regs = int(v)
		case ".smem":
			a.cur.smem = int(v)
		case ".params":
			a.cur.params = int(v)
		}
		return nil
	case ".alias":
		parts := splitOperands(a.ops[:0], rest)
		if len(parts) != 2 {
			return fmt.Errorf(".alias wants `name, Rn`")
		}
		if a.aliases == nil {
			a.aliases = map[string]string{}
		}
		a.aliases[parts[0]] = parts[1]
		return nil
	case ".equ":
		parts := splitOperands(a.ops[:0], rest)
		if len(parts) != 2 {
			return fmt.Errorf(".equ wants `name, value`")
		}
		v, err := parseInt(parts[1])
		if err != nil {
			return fmt.Errorf(".equ %s: %w", parts[0], err)
		}
		if a.consts == nil {
			a.consts = map[string]int64{}
		}
		a.consts[parts[0]] = v
		return nil
	default:
		return fmt.Errorf("unknown directive %s", dir)
	}
}

// finish resolves labels and packages the kernel.
func (a *asm) finish() (cubin.Kernel, error) {
	ks := a.cur
	code := a.code[:len(a.code):len(a.code)]
	a.code = a.code[len(a.code):]
	for _, b := range a.branches {
		target, ok := ks.labels[b.label]
		if !ok {
			return cubin.Kernel{}, fmt.Errorf("undefined label %q", b.label)
		}
		b.inst.Imm = uint32(int32(target - (b.pc + 1)))
		code[b.pc] = b.inst.Encode()
	}
	regs := ks.regs
	if regs == 0 {
		regs = ks.maxReg + 1
	}
	bars := 0
	if ks.hasBar {
		bars = 1
	}
	return cubin.Kernel{
		Name:       ks.name,
		NumRegs:    regs,
		SmemBytes:  ks.smem,
		ParamBytes: ks.params,
		BarCount:   bars,
		Code:       code,
	}, nil
}

// instruction parses one instruction line,
//
//	[ctrl] [@[!]P] MNEMONIC[.MOD]* [operand {, operand}] ;
//
// in one left-to-right scan. The control prefix and the guard each end
// at the first space after them, as does the mnemonic; the control
// prefix is recognized by its four colons.
//
// A line's encoding depends on nothing but its text while the module
// has defined no .alias or .equ, unless it names a label, so such a line
// that assembled once is served from the memo.
func (a *asm) instruction(line string) error {
	memoize := a.aliases == nil && a.consts == nil
	if memoize {
		if m, ok := a.memo.get(line); ok {
			a.track(m.fp)
			a.code = append(a.code, m.word)
			return nil
		}
	}
	if !strings.HasSuffix(line, ";") {
		return fmt.Errorf("missing trailing ';'")
	}
	rest := trimSpace(line[:len(line)-1])

	var inst sass.Inst
	inst.Pred, inst.Ctrl = sass.PT, sass.DefaultCtrl()
	// A first token with four colons is a control prefix. It is never
	// empty (sp > 0), so it cannot match an unset lastCtrlTok.
	if sp := strings.IndexByte(rest, ' '); sp > 0 {
		if tok := rest[:sp]; tok == a.lastCtrlTok || strings.Count(tok, ":") == 4 {
			if tok != a.lastCtrlTok {
				c, err := parseCtrl(tok)
				if err != nil {
					return err
				}
				a.lastCtrlTok, a.lastCtrl = tok, c
			}
			inst.Ctrl = a.lastCtrl
			rest = trimSpace(rest[sp+1:])
		}
	}
	if rest != "" && rest[0] == '@' {
		tok, after := rest[1:], ""
		if sp := strings.IndexByte(tok, ' '); sp >= 0 {
			tok, after = tok[:sp], tok[sp+1:]
		}
		neg := tok != "" && tok[0] == '!'
		if neg {
			tok = tok[1:]
		}
		p, err := a.parsePred(tok)
		if err != nil {
			return fmt.Errorf("guard: %w", err)
		}
		inst.Pred, inst.PredNeg = p, neg
		rest = trimSpace(after)
	}
	// The mnemonic and its dot-separated modifiers run to the first
	// space; start is the current modifier's offset, -1 in the mnemonic.
	mn, mods, i := "", a.mods[:0], 0
	for start := -1; ; i++ {
		end := i == len(rest) || rest[i] == ' '
		if !end && rest[i] != '.' {
			continue
		}
		if start < 0 {
			mn = rest[:i]
		} else {
			mods = append(mods, rest[start:i])
		}
		if end {
			break
		}
		start = i + 1
	}
	if i < len(rest) {
		i++
	}
	ops := splitOperands(a.ops[:0], trimSpace(rest[i:]))

	label, err := a.encodeOp(&inst, mn, mods, ops)
	if err != nil {
		return err
	}
	fp := footprintOf(&inst)
	a.track(fp)
	word := inst.Encode()
	switch {
	case label != "":
		a.branches = append(a.branches, branch{pc: len(a.code), inst: inst, label: label})
	case memoize:
		a.memo.add(line, memoLine{word, fp})
	}
	a.code = append(a.code, word)
	return nil
}

// footprint is what an instruction adds to its kernel's resource
// claims: the highest register it touches (-1 for none) and whether it
// is a barrier.
type footprint struct {
	maxReg int16
	bar    bool
}

func footprintOf(inst *sass.Inst) footprint {
	f := footprint{maxReg: -1}
	upd := func(r sass.Reg, width int) {
		if r == sass.RZ {
			return
		}
		if hi := int16(r) + int16(width) - 1; hi > f.maxReg {
			f.maxReg = hi
		}
	}
	w := 1
	if inst.Op.IsMemory() {
		w = inst.Width.Regs()
	}
	switch inst.Op {
	case sass.OpLDG, sass.OpLDS:
		upd(inst.Rd, w)
		upd(inst.Rs0, 1)
	case sass.OpSTG, sass.OpSTS:
		upd(inst.Rs0, 1)
		upd(inst.Rs2, w)
	case sass.OpBAR:
		f.bar = true
	default:
		upd(inst.Rd, 1)
		upd(inst.Rs0, 1)
		if inst.SrcMode == sass.SrcReg {
			upd(inst.Rs1, 1)
		}
		upd(inst.Rs2, 1)
	}
	return f
}

// track records register high-water mark and barrier usage.
func (a *asm) track(f footprint) {
	if int(f.maxReg) > a.cur.maxReg {
		a.cur.maxReg = int(f.maxReg)
	}
	if f.bar {
		a.cur.hasBar = true
	}
}

// encodeOp fills in opcode-specific fields; returns a branch label when
// the instruction references one.
func (a *asm) encodeOp(inst *sass.Inst, mn string, mods, ops []string) (string, error) {
	need := func(n int) error {
		if len(ops) != n {
			return fmt.Errorf("%s wants %d operands, got %d", mn, n, len(ops))
		}
		return nil
	}
	switch mn {
	case "NOP":
		inst.Op = sass.OpNOP
		return "", need(0)
	case "EXIT":
		inst.Op = sass.OpEXIT
		return "", need(0)
	case "BAR":
		inst.Op = sass.OpBAR
		if len(ops) > 1 {
			return "", fmt.Errorf("BAR.SYNC takes at most one operand")
		}
		return "", nil
	case "BRA":
		inst.Op = sass.OpBRA
		inst.SrcMode = sass.SrcImm
		if err := need(1); err != nil {
			return "", err
		}
		return ops[0], nil
	case "FFMA", "IMAD", "IADD3", "SEL":
		switch mn {
		case "FFMA":
			inst.Op = sass.OpFFMA
		case "IMAD":
			inst.Op = sass.OpIMAD
			for _, m := range mods {
				if m != "HI" {
					return "", fmt.Errorf("IMAD: unknown modifier .%s", m)
				}
				inst.ShRight = true // .HI: high 32 bits of the product
			}
		case "IADD3":
			inst.Op = sass.OpIADD3
		case "SEL":
			inst.Op = sass.OpSEL
		}
		if err := need(4); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		aOp := ops[1]
		if mn == "FFMA" && strings.HasPrefix(aOp, "-") {
			inst.NegA = true
			aOp = aOp[1:]
		}
		if inst.Rs0, err = a.parseReg(aOp, inst, 0); err != nil {
			return "", err
		}
		if err = a.parseB(ops[2], inst, mn == "FFMA"); err != nil {
			return "", err
		}
		if mn == "SEL" {
			p, err := a.parsePred(ops[3])
			if err != nil {
				return "", err
			}
			inst.SrcPred = p
			return "", nil
		}
		if inst.Rs2, err = a.parseReg(ops[3], inst, 2); err != nil {
			return "", err
		}
		return "", nil
	case "FADD", "FMUL":
		if mn == "FADD" {
			inst.Op = sass.OpFADD
		} else {
			inst.Op = sass.OpFMUL
		}
		if err := need(3); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		aOp := ops[1]
		if strings.HasPrefix(aOp, "-") {
			inst.NegA = true
			aOp = aOp[1:]
		}
		if inst.Rs0, err = a.parseReg(aOp, inst, 0); err != nil {
			return "", err
		}
		return "", a.parseB(ops[2], inst, true)
	case "MOV":
		inst.Op = sass.OpMOV
		if err := need(2); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		return "", a.parseB(ops[1], inst, false)
	case "SHF":
		inst.Op = sass.OpSHF
		for _, m := range mods {
			switch m {
			case "L":
				inst.ShRight = false
			case "R":
				inst.ShRight = true
			default:
				return "", fmt.Errorf("SHF: unknown modifier .%s", m)
			}
		}
		if err := need(3); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		if inst.Rs0, err = a.parseReg(ops[1], inst, 0); err != nil {
			return "", err
		}
		return "", a.parseB(ops[2], inst, false)
	case "LOP3":
		inst.Op = sass.OpLOP3
		if err := need(5); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		if inst.Rs0, err = a.parseReg(ops[1], inst, 0); err != nil {
			return "", err
		}
		if err = a.parseB(ops[2], inst, false); err != nil {
			return "", err
		}
		if inst.Rs2, err = a.parseReg(ops[3], inst, 2); err != nil {
			return "", err
		}
		lut, err := a.parseImm(ops[4])
		if err != nil {
			return "", err
		}
		inst.Lut = uint8(lut)
		return "", nil
	case "ISETP":
		inst.Op = sass.OpISETP
		if len(mods) < 1 {
			return "", fmt.Errorf("ISETP needs a comparison modifier")
		}
		switch mods[0] {
		case "LT":
			inst.Cmp = sass.CmpLT
		case "EQ":
			inst.Cmp = sass.CmpEQ
		case "LE":
			inst.Cmp = sass.CmpLE
		case "GT":
			inst.Cmp = sass.CmpGT
		case "NE":
			inst.Cmp = sass.CmpNE
		case "GE":
			inst.Cmp = sass.CmpGE
		default:
			return "", fmt.Errorf("ISETP: unknown comparison .%s", mods[0])
		}
		if len(ops) != 3 && len(ops) != 4 {
			return "", fmt.Errorf("ISETP wants 3 or 4 operands")
		}
		pd, err := a.parsePred(ops[0])
		if err != nil {
			return "", err
		}
		inst.Pd = pd
		if inst.Rs0, err = a.parseReg(ops[1], inst, 0); err != nil {
			return "", err
		}
		if err = a.parseB(ops[2], inst, false); err != nil {
			return "", err
		}
		inst.SrcPred = sass.PT
		if len(ops) == 4 {
			if inst.SrcPred, err = a.parsePred(ops[3]); err != nil {
				return "", err
			}
		}
		return "", nil
	case "S2R":
		inst.Op = sass.OpS2R
		if err := need(2); err != nil {
			return "", err
		}
		var err error
		if inst.Rd, err = a.parseReg(ops[0], inst, -1); err != nil {
			return "", err
		}
		sr, err := parseSpecialReg(ops[1])
		if err != nil {
			return "", err
		}
		inst.Imm = uint32(sr)
		return "", nil
	case "P2R", "R2P":
		if mn == "P2R" {
			inst.Op = sass.OpP2R
		} else {
			inst.Op = sass.OpR2P
		}
		if err := need(2); err != nil {
			return "", err
		}
		r, err := a.parseReg(ops[0], inst, -1)
		if err != nil {
			return "", err
		}
		if mn == "P2R" {
			inst.Rd = r
		} else {
			inst.Rs0 = r
		}
		mask, err := a.parseImm(ops[1])
		if err != nil {
			return "", err
		}
		inst.Imm = uint32(mask)
		return "", nil
	case "LDG", "LDS", "STG", "STS":
		switch mn {
		case "LDG":
			inst.Op = sass.OpLDG
		case "LDS":
			inst.Op = sass.OpLDS
		case "STG":
			inst.Op = sass.OpSTG
		case "STS":
			inst.Op = sass.OpSTS
		}
		inst.Width = sass.W32
		for _, m := range mods {
			switch m {
			case "32", "E":
				inst.Width = sass.W32
			case "64":
				inst.Width = sass.W64
			case "128":
				inst.Width = sass.W128
			default:
				return "", fmt.Errorf("%s: unknown modifier .%s", mn, m)
			}
		}
		if err := need(2); err != nil {
			return "", err
		}
		load := mn == "LDG" || mn == "LDS"
		addrOp, dataOp := ops[1], ops[0]
		if !load {
			addrOp, dataOp = ops[0], ops[1]
		}
		base, off, err := a.parseAddr(addrOp)
		if err != nil {
			return "", err
		}
		inst.Rs0, inst.Imm = base, off
		r, err := a.parseReg(dataOp, inst, -1)
		if err != nil {
			return "", err
		}
		if load {
			inst.Rd = r
		} else {
			inst.Rs2 = r
		}
		return "", nil
	default:
		return "", fmt.Errorf("unknown mnemonic %q", mn)
	}
}

// parseCtrl parses the wait:read:write:yield:stall control prefix.
func parseCtrl(tok string) (sass.Ctrl, error) {
	var parts [5]string
	rest, more := tok, true
	for i := range parts {
		if !more {
			return sass.Ctrl{}, fmt.Errorf("control prefix wants 5 fields, got %q", tok)
		}
		parts[i], rest, more = strings.Cut(rest, ":")
	}
	if more {
		return sass.Ctrl{}, fmt.Errorf("control prefix wants 5 fields, got %q", tok)
	}
	c := sass.Ctrl{WriteBar: sass.NoBar, ReadBar: sass.NoBar}
	if parts[0] != "--" {
		v, err := strconv.ParseUint(parts[0], 16, 8)
		if err != nil || v > 0x3f {
			return c, fmt.Errorf("bad wait mask %q", parts[0])
		}
		c.WaitMask = uint8(v)
	}
	barField := func(s, name string) (int8, error) {
		if s == "-" {
			return sass.NoBar, nil
		}
		v, ok := decimal(s, 5)
		if !ok {
			return 0, fmt.Errorf("bad %s barrier %q", name, s)
		}
		return int8(v), nil
	}
	var err error
	if c.ReadBar, err = barField(parts[1], "read"); err != nil {
		return c, err
	}
	if c.WriteBar, err = barField(parts[2], "write"); err != nil {
		return c, err
	}
	switch parts[3] {
	case "Y":
		c.Yield = true
	case "-":
	default:
		return c, fmt.Errorf("bad yield flag %q", parts[3])
	}
	stall, ok := decimal(parts[4], 15)
	if !ok {
		return c, fmt.Errorf("bad stall count %q", parts[4])
	}
	c.Stall = uint8(stall)
	return c, nil
}

// decimal reads s as strconv.Atoi reads it (an optional sign, then
// decimal digits) and reports whether it holds a value in [0, max].
func decimal(s string, max int) (int, bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	v := 0
	for i := 0; i < len(s); i++ {
		d := int(s[i]) - '0'
		if d < 0 || d > 9 {
			return 0, false
		}
		if v = v*10 + d; v > max {
			return 0, false
		}
	}
	return v, !neg || v == 0
}

// parseReg parses a register operand; slot >= 0 records .reuse flags for
// that source slot.
func (a *asm) parseReg(tok string, inst *sass.Inst, slot int) (sass.Reg, error) {
	if base, reuse := strings.CutSuffix(tok, ".reuse"); reuse {
		tok = base
		if slot < 0 {
			// Destinations and memory operands never read through the
			// operand collectors; a .reuse there latches nothing and
			// marks a scheduling bug in the emitting template.
			return 0, fmt.Errorf(".reuse on %q, which is not a reusable source slot", tok)
		}
		if tok == "RZ" || a.alias(tok) == "RZ" {
			// RZ is hardwired zero and never occupies a collector; the
			// flag would silently latch garbage for the slot.
			return 0, fmt.Errorf(".reuse on RZ")
		}
		inst.Ctrl.Reuse |= 1 << uint(slot)
	}
	r, name, ok := a.reg(tok)
	if ok {
		return r, nil
	}
	if !strings.HasPrefix(name, "R") {
		return 0, fmt.Errorf("expected register, got %q", name)
	}
	return 0, fmt.Errorf("bad register %q", name)
}

// reg resolves an alias and parses RZ or Rn (no .reuse suffix). It
// returns the resolved name; ok is false when that names no register.
func (a *asm) reg(tok string) (r sass.Reg, name string, ok bool) {
	tok = a.alias(tok)
	if tok == "RZ" {
		return sass.RZ, tok, true
	}
	if !strings.HasPrefix(tok, "R") {
		return 0, tok, false
	}
	n, ok := decimal(tok[1:], int(sass.MaxReg))
	if !ok {
		return 0, tok, false
	}
	return sass.Reg(n), tok, true
}

func (a *asm) parsePred(tok string) (sass.Pred, error) {
	tok = a.alias(tok)
	if tok == "PT" {
		return sass.PT, nil
	}
	if !strings.HasPrefix(tok, "P") {
		return 0, fmt.Errorf("expected predicate, got %q", tok)
	}
	n, ok := decimal(tok[1:], sass.NumPred-1)
	if !ok {
		return 0, fmt.Errorf("bad predicate %q", tok)
	}
	return sass.Pred(n), nil
}

// parseB parses the flexible second-source operand: register, immediate,
// or constant memory. allowFloat enables float literals (and register
// negation, '-Rn') for FP ops.
func (a *asm) parseB(tok string, inst *sass.Inst, allowFloat bool) error {
	if allowFloat && strings.HasPrefix(tok, "-") {
		rest := tok[1:]
		if alias, ok := a.aliases[strings.TrimSuffix(rest, ".reuse")]; ok {
			rest = alias
		}
		if strings.HasPrefix(rest, "R") || strings.HasPrefix(rest, "c[") {
			inst.NegB = true
			tok = tok[1:]
		}
	}
	if strings.HasPrefix(tok, "c[") {
		bank, ofs, err := parseConst(tok)
		if err != nil {
			return err
		}
		inst.SrcMode = sass.SrcConst
		inst.ConstBank, inst.ConstOfs = bank, ofs
		return nil
	}
	if len(a.consts) != 0 {
		if v, ok := a.consts[strings.TrimSuffix(tok, ".reuse")]; ok {
			inst.SrcMode = sass.SrcImm
			inst.Imm = uint32(v)
			return nil
		}
	}
	if strings.HasSuffix(tok, ".reuse") {
		if r, err := a.parseReg(tok, inst, 1); err == nil {
			inst.SrcMode, inst.Rs1 = sass.SrcReg, r
			return nil
		}
	} else if r, _, ok := a.reg(tok); ok {
		inst.SrcMode, inst.Rs1 = sass.SrcReg, r
		return nil
	}
	if allowFloat && (strings.Contains(tok, ".") || strings.Contains(tok, "e")) {
		f, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			return fmt.Errorf("bad float immediate %q", tok)
		}
		inst.SrcMode = sass.SrcImm
		inst.Imm = f32bits(float32(f))
		return nil
	}
	v, err := a.parseImm(tok)
	if err != nil {
		return fmt.Errorf("bad operand %q", tok)
	}
	inst.SrcMode = sass.SrcImm
	inst.Imm = uint32(v)
	return nil
}

// parseAddr parses [Rn], [Rn+imm], [Rn+NAME] or [imm].
func (a *asm) parseAddr(tok string) (sass.Reg, uint32, error) {
	if !strings.HasPrefix(tok, "[") || !strings.HasSuffix(tok, "]") {
		return 0, 0, fmt.Errorf("expected [addr], got %q", tok)
	}
	inner := tok[1 : len(tok)-1]
	base, offStr, hasOff := strings.Cut(inner, "+")
	if !hasOff {
		// Either a bare register or a bare immediate.
		if !strings.HasPrefix(base, "R") {
			if v, err := a.parseImm(base); err == nil {
				if _, isAlias := a.aliases[base]; !isAlias {
					return sass.RZ, uint32(v), nil
				}
			}
		}
		var dummy sass.Inst
		r, err := a.parseReg(base, &dummy, -1)
		if err != nil {
			return 0, 0, err
		}
		return r, 0, nil
	}
	var dummy sass.Inst
	r, err := a.parseReg(strings.TrimSpace(base), &dummy, -1)
	if err != nil {
		return 0, 0, err
	}
	off, err := a.parseImm(strings.TrimSpace(offStr))
	if err != nil {
		return 0, 0, err
	}
	return r, uint32(off), nil
}

func (a *asm) parseImm(tok string) (int64, error) {
	if len(a.consts) != 0 {
		if v, ok := a.consts[tok]; ok {
			return v, nil
		}
	}
	return parseInt(tok)
}

func parseInt(tok string) (int64, error) {
	neg := false
	if strings.HasPrefix(tok, "-") {
		neg = true
		tok = tok[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(tok, "0x") || strings.HasPrefix(tok, "0X") {
		v, err = strconv.ParseUint(tok[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(tok, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", tok)
	}
	out := int64(v)
	if neg {
		out = -out
	}
	return out, nil
}

func parseConst(tok string) (uint8, uint16, error) {
	// c[0x0][0x160]
	rest := strings.TrimPrefix(tok, "c[")
	bankStr, rest, ok := strings.Cut(rest, "]")
	if !ok || !strings.HasPrefix(rest, "[") || !strings.HasSuffix(rest, "]") {
		return 0, 0, fmt.Errorf("bad constant operand %q", tok)
	}
	ofsStr := strings.TrimSuffix(strings.TrimPrefix(rest, "["), "]")
	bank, err := parseInt(bankStr)
	if err != nil {
		return 0, 0, err
	}
	ofs, err := parseInt(ofsStr)
	if err != nil {
		return 0, 0, err
	}
	if bank < 0 || bank > 255 || ofs < 0 || ofs > 0xffff {
		return 0, 0, fmt.Errorf("constant operand out of range %q", tok)
	}
	return uint8(bank), uint16(ofs), nil
}

func parseSpecialReg(tok string) (int, error) {
	switch tok {
	case "SR_TID.X":
		return sass.SRTidX, nil
	case "SR_TID.Y":
		return sass.SRTidY, nil
	case "SR_TID.Z":
		return sass.SRTidZ, nil
	case "SR_CTAID.X":
		return sass.SRCtaidX, nil
	case "SR_CTAID.Y":
		return sass.SRCtaidY, nil
	case "SR_CTAID.Z":
		return sass.SRCtaidZ, nil
	case "SR_LANEID":
		return sass.SRLaneID, nil
	default:
		return 0, fmt.Errorf("unknown special register %q", tok)
	}
}

// operandDelim marks the bytes splitOperands acts on.
var operandDelim = [256]bool{',': true, '[': true, ']': true}

// splitOperands appends the comma-separated operands of s (commas
// inside brackets do not split), each trimmed, to out.
func splitOperands(out []string, s string) []string {
	if s == "" {
		return out
	}
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		if !operandDelim[s[i]] {
			continue
		}
		switch s[i] {
		case ',':
			if depth == 0 {
				out = append(out, trimSpace(s[start:i]))
				start = i + 1
			}
		case '[':
			depth++
		case ']':
			depth--
		}
	}
	return append(out, trimSpace(s[start:]))
}

func f32bits(f float32) uint32 {
	return math.Float32bits(f)
}
