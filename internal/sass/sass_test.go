package sass

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	if Reg(0).String() != "R0" || Reg(254).String() != "R254" || RZ.String() != "RZ" {
		t.Fatal("register formatting wrong")
	}
}

func TestPredString(t *testing.T) {
	if Pred(0).String() != "P0" || Pred(6).String() != "P6" || PT.String() != "PT" {
		t.Fatal("predicate formatting wrong")
	}
}

func TestPaperOpcodeValues(t *testing.T) {
	// Section 5.1.1 publishes these encodings.
	if OpFFMA != 0x223 || OpFADD != 0x221 || OpLDG != 0x381 || OpLDS != 0x984 {
		t.Fatal("published opcode values must match the paper")
	}
}

func TestOpcodeClassification(t *testing.T) {
	for _, op := range []Opcode{OpLDG, OpSTG, OpLDS, OpSTS} {
		if !op.IsMemory() {
			t.Fatalf("%s should be a memory op", op)
		}
	}
	for _, op := range []Opcode{OpFFMA, OpIADD3, OpMOV, OpBRA} {
		if op.IsMemory() {
			t.Fatalf("%s should not be a memory op", op)
		}
	}
}

func TestCtrlString(t *testing.T) {
	c := Ctrl{Stall: 4, Yield: true, WriteBar: 2, ReadBar: NoBar, WaitMask: 0x01}
	if got := c.String(); got != "01:-:2:Y:4" {
		t.Fatalf("Ctrl.String() = %q", got)
	}
	d := DefaultCtrl()
	if got := d.String(); got != "--:-:-:Y:15" {
		t.Fatalf("DefaultCtrl.String() = %q", got)
	}
}

func TestEncodeDecodeRoundtripKnown(t *testing.T) {
	cases := []Inst{
		{Op: OpFFMA, Pred: PT, Rd: 1, Rs0: 65, Rs1: 80, Rs2: 1, SrcMode: SrcReg,
			Ctrl: Ctrl{Stall: 1, Yield: true, WriteBar: NoBar, ReadBar: NoBar, Reuse: 0b010}},
		{Op: OpLDG, Pred: 1, PredNeg: true, Rd: 4, Rs0: 2, Imm: 0x10, Width: W128,
			Ctrl: Ctrl{Stall: 2, WriteBar: 0, ReadBar: NoBar}},
		{Op: OpISETP, Pred: PT, Pd: 3, SrcPred: PT, Rs0: 7, SrcMode: SrcImm, Imm: 42, Cmp: CmpGE,
			Ctrl: Ctrl{Stall: 4, WriteBar: NoBar, ReadBar: NoBar}},
		{Op: OpMOV, Pred: PT, Rd: 9, SrcMode: SrcConst, ConstBank: 0, ConstOfs: 0x160,
			Ctrl: Ctrl{Stall: 6, WriteBar: NoBar, ReadBar: NoBar}},
		{Op: OpBRA, Pred: 2, SrcMode: SrcImm, Imm: 0xfffffffb, // -5 as two's complement
			Ctrl: Ctrl{Stall: 5, WriteBar: NoBar, ReadBar: NoBar}},
		{Op: OpSHF, Pred: PT, Rd: 3, Rs0: 4, SrcMode: SrcImm, Imm: 2, ShRight: true,
			Ctrl: Ctrl{Stall: 5, WriteBar: NoBar, ReadBar: NoBar}},
		{Op: OpSTS, Pred: PT, Rs0: 10, Rs2: 12, Imm: 0x400, Width: W64,
			Ctrl: Ctrl{Stall: 1, ReadBar: 4, WriteBar: NoBar, WaitMask: 0x3f}},
	}
	for n, in := range cases {
		got, err := Decode(in.Encode())
		if err != nil {
			t.Fatalf("case %d: %v", n, err)
		}
		if got != in {
			t.Fatalf("case %d roundtrip:\n in  %+v\n out %+v", n, in, got)
		}
	}
}

func TestDecodeRejectsBadOpcode(t *testing.T) {
	var w Word
	put(&w.Lo, bOpcode, 12, 0xfff)
	if _, err := Decode(w); err == nil {
		t.Fatal("expected undefined-opcode error")
	}
}

// clampInst normalizes quick-generated fields to legal encodable ranges.
func clampInst(i Inst) Inst {
	ops := []Opcode{OpNOP, OpFFMA, OpFADD, OpFMUL, OpMOV, OpIADD3, OpIMAD,
		OpISETP, OpLOP3, OpSHF, OpSEL, OpS2R, OpP2R, OpR2P, OpLDG, OpSTG,
		OpLDS, OpSTS, OpBAR, OpBRA, OpEXIT}
	i.Op = ops[int(i.Op)%len(ops)]
	i.Pred &= 7
	i.Pd &= 7
	i.SrcPred &= 7
	i.SrcMode = SrcMode(uint8(i.SrcMode) % 3)
	i.Cmp = CmpOp(uint8(i.Cmp) % 6)
	if i.Op.IsMemory() {
		switch uint8(i.Width) % 3 {
		case 0:
			i.Width = W32
		case 1:
			i.Width = W64
		default:
			i.Width = W128
		}
	} else {
		i.Width = 0
	}
	if i.SrcMode == SrcConst {
		i.Imm = 0
	} else {
		i.ConstBank = 0
		i.ConstOfs = 0
	}
	i.Ctrl.Stall &= 15
	i.Ctrl.WaitMask &= 0x3f
	i.Ctrl.Reuse &= 0xf
	if i.Ctrl.ReadBar < 0 || i.Ctrl.ReadBar > 5 {
		i.Ctrl.ReadBar = NoBar
	}
	if i.Ctrl.WriteBar < 0 || i.Ctrl.WriteBar > 5 {
		i.Ctrl.WriteBar = NoBar
	}
	return i
}

// Property: encode/decode is the identity on all legal instructions.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(raw Inst) bool {
		in := clampInst(raw)
		got, err := Decode(in.Encode())
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeAllDecodeAll(t *testing.T) {
	prog := []Inst{
		{Op: OpMOV, Pred: PT, Rd: 0, SrcMode: SrcImm, Imm: 5, Ctrl: DefaultCtrl()},
		{Op: OpEXIT, Pred: PT, Ctrl: DefaultCtrl()},
	}
	words := EncodeAll(prog)
	back, err := DecodeAll(words)
	if err != nil {
		t.Fatal(err)
	}
	for i := range prog {
		if back[i] != prog[i] {
			t.Fatalf("inst %d mismatch", i)
		}
	}
}

func TestDisassemblyMentionsOperands(t *testing.T) {
	i := Inst{Op: OpFFMA, Pred: PT, Rd: 1, Rs0: 65, Rs1: 80, Rs2: 1, SrcMode: SrcReg}
	s := i.String()
	for _, part := range []string{"FFMA", "R1", "R65", "R80"} {
		if !strings.Contains(s, part) {
			t.Fatalf("disassembly %q missing %q", s, part)
		}
	}
	g := Inst{Op: OpLDG, Pred: 1, PredNeg: true, Rd: 4, Rs0: 2, Imm: 16, Width: W128}
	gs := g.String()
	for _, part := range []string{"@!P1", "LDG.128", "[R2+0x10]"} {
		if !strings.Contains(gs, part) {
			t.Fatalf("disassembly %q missing %q", gs, part)
		}
	}
}

func TestSpecialRegNames(t *testing.T) {
	if SpecialRegName(SRTidX) != "SR_TID.X" || SpecialRegName(SRCtaidX) != "SR_CTAID.X" ||
		SpecialRegName(SRLaneID) != "SR_LANEID" {
		t.Fatal("special register naming wrong")
	}
}
