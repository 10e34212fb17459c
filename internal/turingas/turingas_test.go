package turingas

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cubin"
	"repro/internal/sass"
)

func mustKernel(t *testing.T, src string) *cubin.Kernel {
	t.Helper()
	k, err := AssembleKernel(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return k
}

func decode(t *testing.T, k *cubin.Kernel) []sass.Inst {
	t.Helper()
	insts, err := k.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return insts
}

func TestAssembleMinimalKernel(t *testing.T) {
	k := mustKernel(t, `
.kernel tiny
--:-:-:Y:1  MOV R0, 0x2a;
--:-:-:Y:5  EXIT;
.endkernel
`)
	if k.Name != "tiny" {
		t.Fatalf("name = %q", k.Name)
	}
	insts := decode(t, k)
	if len(insts) != 2 {
		t.Fatalf("len = %d", len(insts))
	}
	if insts[0].Op != sass.OpMOV || insts[0].Imm != 0x2a || insts[0].SrcMode != sass.SrcImm {
		t.Fatalf("inst0 = %+v", insts[0])
	}
	if insts[1].Op != sass.OpEXIT {
		t.Fatalf("inst1 = %+v", insts[1])
	}
}

func TestControlPrefixParsed(t *testing.T) {
	k := mustKernel(t, `
.kernel c
3f:2:1:-:7  LDG.128 R4, [R2+0x10];
--:-:-:Y:5  EXIT;
.endkernel
`)
	in := decode(t, k)[0]
	c := in.Ctrl
	if c.WaitMask != 0x3f || c.ReadBar != 2 || c.WriteBar != 1 || c.Yield || c.Stall != 7 {
		t.Fatalf("ctrl = %+v", c)
	}
	if in.Width != sass.W128 || in.Rd != 4 || in.Rs0 != 2 || in.Imm != 0x10 {
		t.Fatalf("ldg = %+v", in)
	}
}

func TestGuardPredicates(t *testing.T) {
	k := mustKernel(t, `
.kernel g
--:-:-:Y:1  @P3 MOV R0, R1;
--:-:-:Y:1  @!P0 FADD R2, R3, R4;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Pred != 3 || insts[0].PredNeg {
		t.Fatalf("inst0 guard = %v neg=%v", insts[0].Pred, insts[0].PredNeg)
	}
	if insts[1].Pred != 0 || !insts[1].PredNeg {
		t.Fatalf("inst1 guard = %v neg=%v", insts[1].Pred, insts[1].PredNeg)
	}
}

func TestReuseFlags(t *testing.T) {
	k := mustKernel(t, `
.kernel r
--:-:-:Y:1  FFMA R1, R65, R80.reuse, R1;
--:-:-:Y:1  FFMA R0, R64.reuse, R80, R0;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Ctrl.Reuse != 0b10 {
		t.Fatalf("inst0 reuse = %b", insts[0].Ctrl.Reuse)
	}
	if insts[1].Ctrl.Reuse != 0b01 {
		t.Fatalf("inst1 reuse = %b", insts[1].Ctrl.Reuse)
	}
}

func TestBranchAndLabels(t *testing.T) {
	k := mustKernel(t, `
.kernel loop
--:-:-:Y:1  MOV R0, 0x0;
top:
--:-:-:Y:1  IADD3 R0, R0, 0x1, RZ;
--:-:-:Y:1  ISETP.LT P0, R0, 0x8;
--:-:-:Y:5  @P0 BRA top;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	bra := insts[3]
	if bra.Op != sass.OpBRA {
		t.Fatalf("not a branch: %+v", bra)
	}
	// target 1, pc 3: offset = 1 - 4 = -3.
	if int32(bra.Imm) != -3 {
		t.Fatalf("branch offset = %d, want -3", int32(bra.Imm))
	}
	if bra.Pred != 0 {
		t.Fatalf("branch guard = %v", bra.Pred)
	}
}

func TestForwardBranch(t *testing.T) {
	k := mustKernel(t, `
.kernel fwd
--:-:-:Y:5  BRA done;
--:-:-:Y:1  MOV R0, 0x1;
done:
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if int32(insts[0].Imm) != 1 {
		t.Fatalf("forward offset = %d, want 1", int32(insts[0].Imm))
	}
}

func TestUndefinedLabelError(t *testing.T) {
	_, err := AssembleKernel(`
.kernel bad
--:-:-:Y:5  BRA nowhere;
.endkernel
`)
	if err == nil || !strings.Contains(err.Error(), "nowhere") {
		t.Fatalf("err = %v", err)
	}
}

func TestAliasesAndEqu(t *testing.T) {
	k := mustKernel(t, `
.equ BK, 64
.kernel named
.alias counter, R7
.alias done, P2
--:-:-:Y:1  MOV counter, BK;
--:-:-:Y:1  ISETP.GE done, counter, BK;
--:-:-:Y:1  @done MOV R0, counter;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Rd != 7 || insts[0].Imm != 64 {
		t.Fatalf("alias/equ failed: %+v", insts[0])
	}
	if insts[1].Pd != 2 || insts[1].Rs0 != 7 {
		t.Fatalf("pred alias failed: %+v", insts[1])
	}
	if insts[2].Pred != 2 {
		t.Fatalf("guard alias failed: %+v", insts[2])
	}
}

func TestConstMemoryOperand(t *testing.T) {
	k := mustKernel(t, `
.kernel cm
.params 16
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:-:Y:6  IMAD R3, R2, c[0x0][0x164], RZ;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].SrcMode != sass.SrcConst || insts[0].ConstBank != 0 || insts[0].ConstOfs != 0x160 {
		t.Fatalf("const operand: %+v", insts[0])
	}
	if k.ParamBytes != 16 {
		t.Fatalf("params = %d", k.ParamBytes)
	}
}

func TestFloatImmediate(t *testing.T) {
	k := mustKernel(t, `
.kernel f
--:-:-:Y:1  FADD R0, R1, 0.5;
--:-:-:Y:1  FMUL R2, R3, -2.0;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Imm != math.Float32bits(0.5) {
		t.Fatalf("float imm = 0x%x", insts[0].Imm)
	}
	if insts[1].Imm != math.Float32bits(-2.0) {
		t.Fatalf("float imm = 0x%x", insts[1].Imm)
	}
}

func TestMemoryForms(t *testing.T) {
	k := mustKernel(t, `
.kernel mem
.smem 1024
--:-:1:-:2  LDG R0, [R2];
--:-:2:-:2  LDS.64 R4, [R6+0x40];
01:-:-:-:2  STS [R6+0x80], R4;
02:3:-:-:2  STG.128 [R8], R12;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Width != sass.W32 || insts[0].Rs0 != 2 || insts[0].Imm != 0 {
		t.Fatalf("ldg: %+v", insts[0])
	}
	if insts[1].Width != sass.W64 || insts[1].Imm != 0x40 {
		t.Fatalf("lds: %+v", insts[1])
	}
	if insts[2].Op != sass.OpSTS || insts[2].Rs2 != 4 || insts[2].Imm != 0x80 {
		t.Fatalf("sts: %+v", insts[2])
	}
	if insts[3].Op != sass.OpSTG || insts[3].Width != sass.W128 || insts[3].Rs2 != 12 {
		t.Fatalf("stg: %+v", insts[3])
	}
	if k.SmemBytes != 1024 {
		t.Fatalf("smem = %d", k.SmemBytes)
	}
}

func TestS2RAndP2R(t *testing.T) {
	k := mustKernel(t, `
.kernel sr
--:-:0:-:2  S2R R0, SR_TID.X;
--:-:1:-:2  S2R R1, SR_CTAID.X;
--:-:-:Y:2  P2R R2, 0x7f;
--:-:-:Y:2  R2P R2, 0xf;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Imm != sass.SRTidX || insts[1].Imm != sass.SRCtaidX {
		t.Fatal("S2R indices wrong")
	}
	if insts[2].Op != sass.OpP2R || insts[2].Rd != 2 || insts[2].Imm != 0x7f {
		t.Fatalf("p2r: %+v", insts[2])
	}
	if insts[3].Op != sass.OpR2P || insts[3].Rs0 != 2 || insts[3].Imm != 0xf {
		t.Fatalf("r2p: %+v", insts[3])
	}
}

func TestRegisterCountInferred(t *testing.T) {
	k := mustKernel(t, `
.kernel regs
--:-:-:Y:1  MOV R9, 0x1;
--:-:1:-:2  LDG.128 R12, [R0];
--:-:-:Y:5  EXIT;
.endkernel
`)
	// LDG.128 into R12 touches R12..R15 -> 16 registers.
	if k.NumRegs != 16 {
		t.Fatalf("NumRegs = %d, want 16", k.NumRegs)
	}
}

func TestExplicitRegsDirectiveWins(t *testing.T) {
	k := mustKernel(t, `
.kernel regs
.regs 253
--:-:-:Y:1  MOV R0, 0x1;
--:-:-:Y:5  EXIT;
.endkernel
`)
	if k.NumRegs != 253 {
		t.Fatalf("NumRegs = %d", k.NumRegs)
	}
}

func TestBarCounted(t *testing.T) {
	k := mustKernel(t, `
.kernel b
--:-:-:Y:5  BAR.SYNC;
--:-:-:Y:5  EXIT;
.endkernel
`)
	if k.BarCount != 1 {
		t.Fatalf("BarCount = %d", k.BarCount)
	}
}

// TestMultipleKernels assembles kernels of different lengths and labels
// in one module and checks each encodes exactly as it does on its own,
// so nothing leaks from one kernel into the next.
func TestMultipleKernels(t *testing.T) {
	srcs := []string{`
.kernel a
--:-:-:Y:1  MOV R0, 0x0;
top:
--:-:-:Y:1  IADD3 R0, R0, 0x1, RZ;
--:-:-:Y:1  ISETP.LT P0, R0, 0x8;
--:-:-:Y:5  @P0 BRA top;
--:-:-:Y:5  EXIT;
.endkernel
`, `
.kernel b
--:-:-:Y:5  EXIT;
.endkernel
`, `
.kernel c
.regs 8
--:-:-:Y:1  MOV R3, 0x1;
--:-:-:Y:5  BRA done;
--:-:-:Y:1  MOV R3, 0x2;
done:
--:-:-:Y:5  EXIT;
.endkernel
`}
	mod, err := Assemble(strings.Join(srcs, ""))
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Kernels) != len(srcs) {
		t.Fatalf("kernels = %d, want %d", len(mod.Kernels), len(srcs))
	}
	for i, src := range srcs {
		want := mustKernel(t, src)
		if got := mod.Kernels[i]; !reflect.DeepEqual(got, *want) {
			t.Errorf("kernel %d in module = %+v, alone = %+v", i, got, *want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble(`
.kernel e
--:-:-:Y:1  BOGUS R0, R1;
.endkernel
`)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingSemicolonError(t *testing.T) {
	_, err := Assemble(".kernel x\n--:-:-:Y:1  MOV R0, 0x1\n.endkernel\n")
	if err == nil || !strings.Contains(err.Error(), "';'") {
		t.Fatalf("err = %v", err)
	}
}

func TestMissingEndkernelError(t *testing.T) {
	_, err := Assemble(".kernel x\n--:-:-:Y:5  EXIT;\n")
	if err == nil || !strings.Contains(err.Error(), ".endkernel") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadControlPrefixErrors(t *testing.T) {
	for _, bad := range []string{
		"zz:-:-:Y:1  MOV R0, 0x1;",
		"--:9:-:Y:1  MOV R0, 0x1;",
		"--:-:-:Q:1  MOV R0, 0x1;",
		"--:-:-:Y:99  MOV R0, 0x1;",
	} {
		_, err := Assemble(".kernel x\n" + bad + "\n.endkernel\n")
		if err == nil {
			t.Fatalf("expected error for %q", bad)
		}
	}
}

func TestCommentsIgnored(t *testing.T) {
	k := mustKernel(t, `
# full line comment
.kernel c
--:-:-:Y:1  MOV R0, 0x1; // trailing
--:-:-:Y:5  EXIT; # trailing too
.endkernel
`)
	if len(decode(t, k)) != 2 {
		t.Fatal("comments not stripped")
	}
}

func TestDisassembleRoundtripReassembles(t *testing.T) {
	src := `
.kernel round
.regs 32
.smem 256
.params 8
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:1:-:2  LDG.128 R4, [R2+0x20];
01:-:-:Y:4  FFMA R8, R4, R5.reuse, R6;
--:-:-:Y:5  EXIT;
.endkernel
`
	k := mustKernel(t, src)
	dis, err := Disassemble(k)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LDG.128", "FFMA", "c[0x0][0x160]", "EXIT"} {
		if !strings.Contains(dis, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func TestCubinSerializationRoundtrip(t *testing.T) {
	mod, err := Assemble(`
.kernel one
.regs 24
.smem 512
.params 24
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:-:Y:5  EXIT;
.endkernel
.kernel two
--:-:-:Y:5  BAR.SYNC;
--:-:-:Y:5  EXIT;
.endkernel
`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mod.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := cubin.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Kernels) != 2 {
		t.Fatalf("kernels = %d", len(back.Kernels))
	}
	k1, k2, orig := back.Kernels[0], back.Kernels[1], mod.Kernels[0]
	if k1.Name != "one" || k2.Name != "two" {
		t.Fatalf("kernel names lost: %q, %q", k1.Name, k2.Name)
	}
	if k1.NumRegs != 24 || k1.SmemBytes != 512 || k1.ParamBytes != 24 {
		t.Fatalf("meta lost: %+v", k1)
	}
	if len(k1.Code) != len(orig.Code) {
		t.Fatal("code length changed")
	}
	for i := range k1.Code {
		if k1.Code[i] != orig.Code[i] {
			t.Fatalf("code word %d changed", i)
		}
	}
	if k2.BarCount != 1 {
		t.Fatalf("BarCount lost: %d", k2.BarCount)
	}
}

func TestCubinRejectsGarbage(t *testing.T) {
	if _, err := cubin.Read(bytes.NewReader([]byte("not a module"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestSelAndShfAndLop3(t *testing.T) {
	k := mustKernel(t, `
.kernel misc
--:-:-:Y:1  SEL R0, R1, R2, P3;
--:-:-:Y:1  SHF.R R4, R5, 0x2;
--:-:-:Y:1  SHF.L R6, R7, 0x3;
--:-:-:Y:1  LOP3 R8, R9, R10, RZ, 0xc0;
--:-:-:Y:5  EXIT;
.endkernel
`)
	insts := decode(t, k)
	if insts[0].Op != sass.OpSEL || insts[0].SrcPred != 3 {
		t.Fatalf("sel: %+v", insts[0])
	}
	if !insts[1].ShRight || insts[1].Imm != 2 {
		t.Fatalf("shf.r: %+v", insts[1])
	}
	if insts[2].ShRight {
		t.Fatalf("shf.l: %+v", insts[2])
	}
	if insts[3].Op != sass.OpLOP3 || insts[3].Lut != 0xc0 {
		t.Fatalf("lop3: %+v", insts[3])
	}
}

// TestDisassembleReassembleRoundtrip checks that disassembly is valid
// assembler input producing the identical encoding — over a kernel that
// uses every instruction class, including branches (which round-trip
// through synthetic labels).
func TestDisassembleReassembleRoundtrip(t *testing.T) {
	src := `
.kernel round
.regs 64
.smem 1024
.params 16
--:-:0:-:1  S2R R0, SR_TID.X;
--:-:1:-:2  S2R R1, SR_CTAID.X;
03:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:-:Y:6  MOV R3, 0x0;
top:
--:-:-:Y:4  IADD3 R3, R3, 0x1, RZ;
--:-:-:Y:6  IMAD.HI R4, R3, 0xaaaaaaab, RZ;
--:-:-:Y:6  LOP3 R5, R3, 0xff, RZ, 0xc0;
--:-:-:Y:6  SHF.R R6, R5, 0x2;
--:-:-:Y:6  ISETP.LT P0, R3, 0x8;
--:-:-:Y:6  SEL R7, R5, R6, P0;
--:-:-:Y:4  FADD R8, R7, -R6;
--:-:-:Y:4  FFMA R9, -R8, R7, R9;
--:-:-:Y:6  P2R R10, 0xf;
--:-:-:Y:6  R2P R10, 0x3;
--:-:0:-:2  @P0 LDG.64 R12, [R2+0x10];
01:2:-:-:2  STS [R3], R12;
--:-:3:-:2  LDS.128 R16, [R3+0x40];
08:4:-:-:2  @!P0 STG.128 [R2+0x20], R16;
--:-:-:Y:5  @P0 BRA top;
--:-:-:Y:5  BAR.SYNC;
--:-:-:Y:5  EXIT;
.endkernel
`
	k := mustKernel(t, src)
	dis, err := Disassemble(k)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := AssembleKernel(dis)
	if err != nil {
		t.Fatalf("disassembly did not reassemble: %v\n%s", err, dis)
	}
	if len(k2.Code) != len(k.Code) {
		t.Fatalf("instruction count changed: %d -> %d", len(k.Code), len(k2.Code))
	}
	for i := range k.Code {
		if k.Code[i] != k2.Code[i] {
			t.Fatalf("word %d changed after roundtrip:\n  orig %v\n  back %v\nsource:\n%s",
				i, k.Code[i], k2.Code[i], dis)
		}
	}
	if k2.NumRegs != k.NumRegs || k2.SmemBytes != k.SmemBytes || k2.ParamBytes != k.ParamBytes {
		t.Fatal("kernel metadata changed after roundtrip")
	}
}

// TestGeneratedKernelDisassemblyRoundtrips runs the roundtrip over the
// full generated Winograd kernel — thousands of instructions with every
// control-code feature in use.
func TestGeneratedKernelDisassemblyRoundtrips(t *testing.T) {
	// Assembling the generated kernel happens in internal/kernels; here
	// we only need some large real kernel, so reuse a module assembled
	// from a moderately sized source via the ftf-style path: build a
	// synthetic large kernel instead to avoid an import cycle.
	var b strings.Builder
	b.WriteString(".kernel big\n.regs 128\n.smem 2048\n.params 8\n")
	for i := 0; i < 500; i++ {
		b.WriteString("--:-:-:Y:1  FFMA R8, R1, R2.reuse, R8;\n")
		if i%50 == 49 {
			b.WriteString("--:-:-:Y:5  BAR.SYNC;\n")
		}
	}
	b.WriteString("--:-:-:Y:5  EXIT;\n.endkernel\n")
	k := mustKernel(t, b.String())
	dis, err := Disassemble(k)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := AssembleKernel(dis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range k.Code {
		if k.Code[i] != k2.Code[i] {
			t.Fatalf("word %d changed", i)
		}
	}
}
