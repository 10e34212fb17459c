package gpu

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cubin"
	"repro/internal/turingas"
)

// runScalar assembles a one-warp kernel, runs it, and returns register
// values of lane 0 read back through global stores.
func runScalar(t *testing.T, body string, outRegs []int) []uint32 {
	t.Helper()
	src := ".kernel k\n.params 4\n" + body + "\n--:-:-:Y:6  MOV R200, c[0x0][0x160];\n"
	for i, r := range outRegs {
		src += fmt.Sprintf("--:3:-:-:2  STG [R200+0x%x], R%d;\n", i*4, r)
	}
	src += "--:-:-:Y:5  EXIT;\n.endkernel\n"
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	s := NewSim(RTX2070())
	buf := s.Alloc(4 * len(outRegs) * 32)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr}}); err != nil {
		t.Fatal(err)
	}
	return s.ReadU32(buf.Addr, len(outRegs))
}

func TestIADD3ThreeInputs(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0x5;
--:-:-:Y:6  MOV R2, 0x7;
--:-:-:Y:6  IADD3 R3, R1, 0x3, R2;
`, []int{3})
	if got[0] != 15 {
		t.Fatalf("IADD3 = %d, want 15", got[0])
	}
}

func TestIMADLowAndHigh(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0x10000;
--:-:-:Y:6  IMAD R2, R1, R1, RZ;
--:-:-:Y:6  IMAD.HI R3, R1, R1, RZ;
--:-:-:Y:6  IMAD.HI R4, R1, R1, R2;
`, []int{2, 3, 4})
	// 0x10000^2 = 2^32: low word 0, high word 1.
	if got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("IMAD results = %v, want [0 1 1]", got)
	}
}

func TestSHFDirections(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0x80000001;
--:-:-:Y:6  SHF.L R2, R1, 0x1;
--:-:-:Y:6  SHF.R R3, R1, 0x1;
`, []int{2, 3})
	if got[0] != 0x2 {
		t.Fatalf("SHF.L = %#x", got[0])
	}
	if got[1] != 0x40000000 {
		t.Fatalf("SHF.R = %#x (must be logical)", got[1])
	}
}

func TestLOP3CommonLUTs(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0xf0f0;
--:-:-:Y:6  MOV R2, 0xff00;
--:-:-:Y:6  LOP3 R3, R1, R2, RZ, 0xc0;
--:-:-:Y:6  LOP3 R4, R1, R2, RZ, 0xfc;
--:-:-:Y:6  LOP3 R5, R1, R2, RZ, 0x3c;
`, []int{3, 4, 5})
	if got[0] != 0xf000 { // AND
		t.Fatalf("AND = %#x", got[0])
	}
	if got[1] != 0xfff0 { // OR
		t.Fatalf("OR = %#x", got[1])
	}
	if got[2] != 0x0ff0 { // XOR
		t.Fatalf("XOR = %#x", got[2])
	}
}

func TestLOP3PropertyMatchesTruthTable(t *testing.T) {
	f := func(a, b, c uint32, lut uint8) bool {
		got := lop3(a, b, c, lut)
		// Check 8 random bit positions exhaustively via full words.
		for bit := uint(0); bit < 32; bit++ {
			av := (a >> bit) & 1
			bv := (b >> bit) & 1
			cv := (c >> bit) & 1
			want := (uint32(lut) >> (av<<2 | bv<<1 | cv)) & 1
			if (got>>bit)&1 != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSELByPredicate(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0xa;
--:-:-:Y:6  MOV R2, 0xb;
--:-:-:Y:6  ISETP.EQ P1, RZ, 0x0;
--:-:-:Y:6  ISETP.NE P2, RZ, 0x0;
--:-:-:Y:6  SEL R3, R1, R2, P1;
--:-:-:Y:6  SEL R4, R1, R2, P2;
`, []int{3, 4})
	if got[0] != 0xa || got[1] != 0xb {
		t.Fatalf("SEL = %v, want [a b]", got)
	}
}

func TestFloatNegationOperands(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0x40400000;
--:-:-:Y:6  MOV R2, 0x3f800000;
--:-:-:Y:4  FADD R3, R1, -R2;
--:-:-:Y:4  FADD R4, -R1, R2;
--:-:-:Y:4  FFMA R5, -R1, R2, R1;
`, []int{3, 4, 5})
	if v := math.Float32frombits(got[0]); v != 2 { // 3 - 1
		t.Fatalf("FADD a,-b = %v", v)
	}
	if v := math.Float32frombits(got[1]); v != -2 { // -3 + 1
		t.Fatalf("FADD -a,b = %v", v)
	}
	if v := math.Float32frombits(got[2]); v != 0 { // -3*1 + 3
		t.Fatalf("FFMA -a,b,c = %v", v)
	}
}

func TestISETPComparisons(t *testing.T) {
	// Signed comparisons against a negative value.
	got := runScalar(t, `
--:-:-:Y:6  MOV R1, 0xffffffff;
--:-:-:Y:6  ISETP.LT P0, R1, 0x0;
--:-:-:Y:6  ISETP.GE P1, R1, 0x0;
--:-:-:Y:6  ISETP.EQ P2, R1, 0xffffffff;
--:-:-:Y:6  P2R R3, 0x7f;
`, []int{3})
	// P0 true (bit 0), P1 false, P2 true (bit 2).
	if got[0] != 0b101 {
		t.Fatalf("predicates = %#b, want 0b101", got[0])
	}
}

func TestPredicateCombineAND(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  ISETP.EQ P0, RZ, 0x0;
--:-:-:Y:6  ISETP.EQ P1, RZ, 0x1, P0;
--:-:-:Y:6  ISETP.EQ P2, RZ, 0x0, P0;
--:-:-:Y:6  P2R R3, 0x7;
`, []int{3})
	// P0 true, P1 = false && P0, P2 = true && P0.
	if got[0] != 0b101 {
		t.Fatalf("predicates = %#b, want 0b101", got[0])
	}
}

func TestRZDiscardsWrites(t *testing.T) {
	got := runScalar(t, `
--:-:-:Y:6  MOV RZ, 0x123;
--:-:-:Y:6  IADD3 R1, RZ, 0x1, RZ;
`, []int{1})
	if got[0] != 1 {
		t.Fatalf("RZ must stay zero, got result %d", got[0])
	}
}

func TestSTGVectorWidths(t *testing.T) {
	src := `
.kernel w
.params 4
--:-:-:Y:6  MOV R4, 0x11;
--:-:-:Y:6  MOV R5, 0x22;
--:-:-:Y:6  MOV R6, 0x33;
--:-:-:Y:6  MOV R7, 0x44;
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:3:-:-:2  STG.128 [R2], R4;
--:-:-:Y:5  EXIT;
.endkernel
`
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(RTX2070())
	buf := s.Alloc(64)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr}}); err != nil {
		t.Fatal(err)
	}
	got := s.ReadU32(buf.Addr, 4)
	want := []uint32{0x11, 0x22, 0x33, 0x44}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("STG.128 word %d = %#x, want %#x", i, got[i], want[i])
		}
	}
}

func TestMisalignedAccessRejected(t *testing.T) {
	src := `
.kernel m
.params 4
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:-:Y:6  IADD3 R2, R2, 0x4, RZ;
--:-:0:-:2  LDG.128 R4, [R2];
--:-:-:Y:5  EXIT;
.endkernel
`
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(RTX2070())
	buf := s.Alloc(64)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr}}); err == nil {
		t.Fatal("expected a misalignment error for LDG.128 at +4")
	}
}

func TestLDS128DestAlignmentEnforced(t *testing.T) {
	src := `
.kernel a
.smem 256
--:-:-:Y:6  MOV R1, 0x0;
--:1:-:-:2  STS [R1], R1;
01:-:0:-:2  LDS.128 R5, [R1];
--:-:-:Y:5  EXIT;
.endkernel
`
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(RTX2070())
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32}); err == nil {
		t.Fatal("LDS.128 into R5 (not a multiple of 4) must be rejected (paper Section 4.3)")
	}
}

func TestL2HitTracking(t *testing.T) {
	src := `
.kernel l2
.params 4
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:0:-:2  LDG R4, [R2];
01:-:1:-:2  LDG R5, [R2];
02:-:-:Y:5  EXIT;
.endkernel
`
	k, err := turingas.AssembleKernel(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSim(RTX2070())
	buf := s.Alloc(128)
	m, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32, Params: []uint32{buf.Addr}})
	if err != nil {
		t.Fatal(err)
	}
	if m.L2Misses < 1 || m.L2Hits < 1 {
		t.Fatalf("L2 hits=%d misses=%d; second load of the same line should hit", m.L2Hits, m.L2Misses)
	}
}

func TestCubinRoundtripThroughLaunch(t *testing.T) {
	// Serialize, reload, and run — the full cubin path.
	mod, err := turingas.Assemble(saxpySrc)
	if err != nil {
		t.Fatal(err)
	}
	var k *cubin.Kernel
	{
		var buf = &writerBuffer{}
		if _, err := mod.WriteTo(buf); err != nil {
			t.Fatal(err)
		}
		back, err := cubin.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Kernels) != 1 || back.Kernels[0].Name != "saxpy" {
			t.Fatalf("reloaded module holds %d kernels", len(back.Kernels))
		}
		k = &back.Kernels[0]
	}
	s := NewSim(RTX2070())
	x := s.Alloc(4 * 32)
	y := s.Alloc(4 * 32)
	s.Fill(x.Addr, 32, 3)
	s.Fill(y.Addr, 32, 1)
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32,
		Params: []uint32{x.Addr, y.Addr, f32ToBits(2), 32}}); err != nil {
		t.Fatal(err)
	}
	if got := s.ReadF32(y.Addr, 1)[0]; got != 7 {
		t.Fatalf("reloaded kernel computed %v, want 7", got)
	}
}

// writerBuffer is a minimal io.ReadWriter for the roundtrip test.
type writerBuffer struct {
	data []byte
	off  int
}

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

func (w *writerBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.data) {
		return 0, errEOF
	}
	n := copy(p, w.data[w.off:])
	w.off += n
	return n, nil
}

var errEOF = fmt.Errorf("EOF")
