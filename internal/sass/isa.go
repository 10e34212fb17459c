// Package sass defines the SASS-level instruction set architecture this
// repository assembles and simulates: a faithful model of the Volta/Turing
// encoding scheme the paper documents in Section 5 — 128-bit instructions
// carrying a 12-bit opcode, register/predicate/immediate/constant
// operands, per-opcode flags, and an embedded control code (stall count,
// yield flag, read/write dependency barriers, wait mask, operand-reuse
// bits).
//
// Opcode values that the paper publishes (FFMA 0x223, FADD 0x221, LDG
// 0x381, LDS 0x984) use those values; the remainder of the opcode space is
// project-defined but fixed, which is all an assembler/simulator pair
// requires.
package sass

import "fmt"

// Reg is a regular 32-bit register index. Threads may use R0..R254;
// RZ (index 255) always reads zero and discards writes (Section 5.1.2).
type Reg uint8

// RZ is the zero register.
const RZ Reg = 255

// MaxReg is the highest allocatable register index. The paper notes that
// in practice the register count must stay below 253 for the main loop to
// avoid spilling, and that hardware rejects >255.
const MaxReg Reg = 254

// String formats the register in SASS syntax.
func (r Reg) String() string {
	if r == RZ {
		return "RZ"
	}
	return fmt.Sprintf("R%d", r)
}

// Pred is a predicate register index. Threads have 7 predicate registers
// P0..P6; PT (index 7) is the constant-true predicate (Section 5.2.1).
type Pred uint8

// PT is the constant-true predicate register.
const PT Pred = 7

// NumPred is the count of writable predicate registers per thread.
const NumPred = 7

// String formats the predicate in SASS syntax.
func (p Pred) String() string {
	if p == PT {
		return "PT"
	}
	return fmt.Sprintf("P%d", p)
}

// Opcode is the 12-bit operation code.
type Opcode uint16

// Opcodes. Values marked (paper) are published in Section 5.1.1.
const (
	OpNOP   Opcode = 0x918
	OpFFMA  Opcode = 0x223 // (paper) d = a*b + c, fp32
	OpFADD  Opcode = 0x221 // (paper) d = a + b, fp32
	OpFMUL  Opcode = 0x220 // d = a * b, fp32
	OpMOV   Opcode = 0x202 // d = b
	OpIADD3 Opcode = 0x210 // d = a + b + c, int32
	OpIMAD  Opcode = 0x224 // d = a*b + c, int32 (low 32 bits)
	OpISETP Opcode = 0x20c // pd = (a cmp b) logic pc
	OpLOP3  Opcode = 0x212 // d = lut(a, b, c) bitwise
	OpSHF   Opcode = 0x219 // funnel shift
	OpSEL   Opcode = 0x207 // d = pred ? a : b
	OpS2R   Opcode = 0x919 // d = special register
	OpP2R   Opcode = 0x803 // pack predicates into a register (paper Sec. 2.3)
	OpR2P   Opcode = 0x804 // unpack a register into predicates
	OpLDG   Opcode = 0x381 // (paper) load global
	OpSTG   Opcode = 0x386 // store global
	OpLDS   Opcode = 0x984 // (paper) load shared
	OpSTS   Opcode = 0x388 // store shared
	OpBAR   Opcode = 0xb1d // barrier (__syncthreads)
	OpBRA   Opcode = 0x947 // branch
	OpEXIT  Opcode = 0x94d // thread exit
)

// opcodeNames maps opcodes to mnemonics.
var opcodeNames = map[Opcode]string{
	OpNOP: "NOP", OpFFMA: "FFMA", OpFADD: "FADD", OpFMUL: "FMUL",
	OpMOV: "MOV", OpIADD3: "IADD3", OpIMAD: "IMAD", OpISETP: "ISETP",
	OpLOP3: "LOP3", OpSHF: "SHF", OpSEL: "SEL", OpS2R: "S2R",
	OpP2R: "P2R", OpR2P: "R2P", OpLDG: "LDG", OpSTG: "STG",
	OpLDS: "LDS", OpSTS: "STS", OpBAR: "BAR", OpBRA: "BRA", OpEXIT: "EXIT",
}

// String returns the mnemonic, or a hex form for unknown opcodes.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP(0x%03x)", uint16(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool {
	_, ok := opcodeNames[o]
	return ok
}

// IsMemory reports whether the opcode goes to the memory (MIO) pipe.
func (o Opcode) IsMemory() bool {
	switch o {
	case OpLDG, OpSTG, OpLDS, OpSTS:
		return true
	}
	return false
}

// SrcMode distinguishes the second-source operand kind.
type SrcMode uint8

const (
	// SrcReg: the b operand is a register.
	SrcReg SrcMode = iota
	// SrcImm: the b operand is a 32-bit immediate (Section 5.1.2:
	// Volta/Turing use 32-bit immediates, unlike pre-Volta's 24-bit).
	SrcImm
	// SrcConst: the b operand is constant memory c[bank][offset]
	// (kernel parameters, gridDim, etc.).
	SrcConst
)

// MemWidth is the access width of a memory instruction in bytes.
type MemWidth uint8

const (
	W32  MemWidth = 4
	W64  MemWidth = 8
	W128 MemWidth = 16
)

// Regs returns the number of consecutive registers the access moves.
func (w MemWidth) Regs() int { return int(w) / 4 }

// Suffix renders the width as a SASS flag suffix (".128" etc.).
func (w MemWidth) Suffix() string {
	switch w {
	case W64:
		return ".64"
	case W128:
		return ".128"
	default:
		return ""
	}
}

// CmpOp is an ISETP comparison operator.
type CmpOp uint8

const (
	CmpLT CmpOp = iota
	CmpEQ
	CmpLE
	CmpGT
	CmpNE
	CmpGE
)

// String renders the comparison as its SASS suffix.
func (c CmpOp) String() string {
	switch c {
	case CmpLT:
		return "LT"
	case CmpEQ:
		return "EQ"
	case CmpLE:
		return "LE"
	case CmpGT:
		return "GT"
	case CmpNE:
		return "NE"
	case CmpGE:
		return "GE"
	default:
		return fmt.Sprintf("CMP(%d)", uint8(c))
	}
}

// Special registers readable by S2R.
const (
	SRTidX   = 0
	SRTidY   = 1
	SRTidZ   = 2
	SRCtaidX = 3
	SRCtaidY = 4
	SRCtaidZ = 5
	SRLaneID = 6
)

// SpecialRegName maps an S2R index to its SASS name.
func SpecialRegName(idx int) string {
	switch idx {
	case SRTidX:
		return "SR_TID.X"
	case SRTidY:
		return "SR_TID.Y"
	case SRTidZ:
		return "SR_TID.Z"
	case SRCtaidX:
		return "SR_CTAID.X"
	case SRCtaidY:
		return "SR_CTAID.Y"
	case SRCtaidZ:
		return "SR_CTAID.Z"
	case SRLaneID:
		return "SR_LANEID"
	default:
		return fmt.Sprintf("SR(%d)", idx)
	}
}

// Ctrl is the embedded control code (paper Section 5.1.4). On Volta and
// Turing it is the programmer's/compiler's responsibility to prevent data
// hazards: fixed-latency instructions are covered by the stall count, and
// variable-latency instructions signal completion through one of six
// dependency barriers that consumers wait on.
type Ctrl struct {
	// Stall is the number of cycles to stall before the next instruction
	// of the same warp may issue (0-15).
	Stall uint8
	// Yield is the 1-bit load-balancing flag. When set, the scheduler
	// prefers to keep issuing from the current warp; when cleared it
	// prefers to switch warps, which costs one extra cycle and disables
	// the register reuse cache (Sections 5.1.4 and 6.1).
	Yield bool
	// WriteBar is the dependency barrier (0-5) this instruction will
	// release when its result is written; -1 if none.
	WriteBar int8
	// ReadBar is the dependency barrier (0-5) released when the
	// instruction's source operands have been read (used to protect
	// buffers consumed by stores); -1 if none.
	ReadBar int8
	// WaitMask is a bitmask of barriers (bit i = barrier i) that must
	// all be clear before this instruction issues.
	WaitMask uint8
	// Reuse is a bitmask over source-operand slots (bit 0 = a, bit 1 =
	// b, bit 2 = c) whose values are latched in the operand reuse cache.
	Reuse uint8
}

// NoBar marks an unused barrier slot.
const NoBar int8 = -1

// DefaultCtrl returns the conservative control code used when none is
// specified: stall 15, yield set, no barriers.
func DefaultCtrl() Ctrl {
	return Ctrl{Stall: 15, Yield: true, WriteBar: NoBar, ReadBar: NoBar}
}

// String renders the control code in the assembler's prefix notation
// wait:read:write:yield:stall, e.g. "01:-:2:Y:4".
func (c Ctrl) String() string {
	wait := "--"
	if c.WaitMask != 0 {
		wait = fmt.Sprintf("%02x", c.WaitMask)
	}
	rb, wb := "-", "-"
	if c.ReadBar >= 0 {
		rb = fmt.Sprintf("%d", c.ReadBar)
	}
	if c.WriteBar >= 0 {
		wb = fmt.Sprintf("%d", c.WriteBar)
	}
	y := "-"
	if c.Yield {
		y = "Y"
	}
	return fmt.Sprintf("%s:%s:%s:%s:%d", wait, rb, wb, y, c.Stall)
}

// Inst is a decoded SASS instruction. Fields that an opcode does not use
// are ignored by both encoder and simulator.
type Inst struct {
	Op      Opcode
	Pred    Pred // guard predicate; PT = always execute
	PredNeg bool // @!P guard

	Rd  Reg // destination register (first of a vector for wide loads)
	Rs0 Reg // source a / address register for memory ops
	Rs1 Reg // source b when SrcMode == SrcReg
	Rs2 Reg // source c / data register for stores

	SrcMode   SrcMode
	Imm       uint32 // immediate value / memory offset / branch offset / S2R index / P2R mask
	ConstBank uint8
	ConstOfs  uint16

	Pd      Pred // destination predicate (ISETP)
	SrcPred Pred // combine/source predicate (ISETP logic input, SEL)

	Width   MemWidth // memory access width
	Cmp     CmpOp    // ISETP comparison
	ShRight bool     // SHF direction; doubles as .HI on IMAD (high 32 bits of the 64-bit product)
	Lut     uint8    // LOP3 truth table
	NegA    bool     // negate the a operand (FADD/FMUL/FFMA)
	NegB    bool     // negate the b operand (FADD/FMUL/FFMA)

	Ctrl Ctrl
}

// String disassembles the instruction (without the control-code prefix).
func (i Inst) String() string {
	guard := ""
	if i.Pred != PT || i.PredNeg {
		n := ""
		if i.PredNeg {
			n = "!"
		}
		guard = fmt.Sprintf("@%s%s ", n, i.Pred)
	}
	neg := func(s string, n bool) string {
		if n {
			return "-" + s
		}
		return s
	}
	// ru renders a register source operand with its reuse-cache suffix
	// (the slot bits live in the control code).
	ru := func(r Reg, slot uint) string {
		s := r.String()
		if r != RZ && i.Ctrl.Reuse&(1<<slot) != 0 {
			s += ".reuse"
		}
		return s
	}
	b := func() string {
		var s string
		switch i.SrcMode {
		case SrcImm:
			s = fmt.Sprintf("0x%x", i.Imm)
		case SrcConst:
			s = fmt.Sprintf("c[0x%x][0x%x]", i.ConstBank, i.ConstOfs)
		default:
			s = ru(i.Rs1, 1)
		}
		return neg(s, i.NegB)
	}
	switch i.Op {
	case OpNOP:
		return guard + "NOP;"
	case OpEXIT:
		return guard + "EXIT;"
	case OpBRA:
		return fmt.Sprintf("%sBRA %d;", guard, int32(i.Imm))
	case OpBAR:
		return guard + "BAR.SYNC;"
	case OpLOP3:
		return fmt.Sprintf("%sLOP3 %s, %s, %s, %s, 0x%x;", guard, i.Rd, ru(i.Rs0, 0), b(), ru(i.Rs2, 2), i.Lut)
	case OpSEL:
		return fmt.Sprintf("%sSEL %s, %s, %s, %s;", guard, i.Rd, ru(i.Rs0, 0), b(), i.SrcPred)
	case OpFFMA, OpIMAD, OpIADD3:
		mn := i.Op.String()
		if i.Op == OpIMAD && i.ShRight {
			mn = "IMAD.HI"
		}
		return fmt.Sprintf("%s%s %s, %s, %s, %s;", guard, mn, i.Rd, neg(ru(i.Rs0, 0), i.NegA), b(), ru(i.Rs2, 2))
	case OpFADD, OpFMUL, OpMOV:
		if i.Op == OpMOV {
			return fmt.Sprintf("%sMOV %s, %s;", guard, i.Rd, b())
		}
		return fmt.Sprintf("%s%s %s, %s, %s;", guard, i.Op, i.Rd, neg(ru(i.Rs0, 0), i.NegA), b())
	case OpSHF:
		dir := ".L"
		if i.ShRight {
			dir = ".R"
		}
		return fmt.Sprintf("%sSHF%s %s, %s, %s;", guard, dir, i.Rd, i.Rs0, b())
	case OpISETP:
		return fmt.Sprintf("%sISETP.%s.AND %s, %s, %s, %s;", guard, i.Cmp, i.Pd, i.Rs0, b(), i.SrcPred)
	case OpS2R:
		return fmt.Sprintf("%sS2R %s, %s;", guard, i.Rd, SpecialRegName(int(i.Imm)))
	case OpP2R:
		return fmt.Sprintf("%sP2R %s, 0x%x;", guard, i.Rd, i.Imm)
	case OpR2P:
		return fmt.Sprintf("%sR2P %s, 0x%x;", guard, i.Rs0, i.Imm)
	case OpLDG, OpLDS:
		return fmt.Sprintf("%s%s%s %s, [%s+0x%x];", guard, i.Op, i.Width.Suffix(), i.Rd, i.Rs0, i.Imm)
	case OpSTG, OpSTS:
		return fmt.Sprintf("%s%s%s [%s+0x%x], %s;", guard, i.Op, i.Width.Suffix(), i.Rs0, i.Imm, i.Rs2)
	default:
		return fmt.Sprintf("%s%s ...;", guard, i.Op)
	}
}
