package sasscheck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cubin"
	"repro/internal/sass"
	"repro/internal/turingas"
)

// asm assembles a kernel body (trailing semicolons and .end added here)
// and returns its decoded instruction stream.
func asm(t *testing.T, body string) []sass.Inst {
	t.Helper()
	var b strings.Builder
	b.WriteString(".kernel t\n.regs 254\n.smem 4096\n.params 16\n")
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") || strings.HasSuffix(line, ":") {
			b.WriteString(line + "\n")
			continue
		}
		b.WriteString(line + ";\n")
	}
	b.WriteString(".endkernel\n")
	k, err := turingas.AssembleKernel(b.String())
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, b.String())
	}
	insts, err := k.Decode()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return insts
}

// rulesAt collects the rule IDs fired at the given pc (-1 for any pc).
func rulesAt(ds []Diag, pc int) map[string]bool {
	m := map[string]bool{}
	for _, d := range ds {
		if pc < 0 || d.PC == pc {
			m[d.Rule] = true
		}
	}
	return m
}

func wantRule(t *testing.T, ds []Diag, pc int, rule string) {
	t.Helper()
	if !rulesAt(ds, pc)[rule] {
		t.Errorf("missing %s at pc %d; got %v", rule, pc, ds)
	}
}

func wantClean(t *testing.T, ds []Diag) {
	t.Helper()
	if len(ds) != 0 {
		t.Errorf("want clean, got %v", ds)
	}
}

func TestCleanStream(t *testing.T) {
	wantClean(t, Check(asm(t, `
		--:-:0:Y:2 S2R R0, SR_TID.X
		01:-:-:Y:5 IADD3 R1, R0, 0x10, RZ
		--:-:1:Y:1 LDS R2, [R1]
		02:-:-:Y:4 FADD R3, R2, R2
		--:-:-:Y:5 MOV R4, R3
		--:2:-:Y:1 STS [R1], R4
		04:-:-:Y:15 EXIT`)))
}

func TestStructuralRanges(t *testing.T) {
	// Out-of-range encodings cannot be produced by the assembler, so
	// build the stream directly.
	mk := func(mut func(*sass.Inst)) []sass.Inst {
		in := sass.Inst{Op: sass.OpMOV, Rd: 1, Rs1: 2, SrcMode: sass.SrcReg,
			Pred: sass.PT, Ctrl: sass.DefaultCtrl()}
		mut(&in)
		exit := sass.Inst{Op: sass.OpEXIT, Pred: sass.PT, Ctrl: sass.DefaultCtrl()}
		return []sass.Inst{in, exit}
	}
	cases := []struct {
		rule string
		mut  func(*sass.Inst)
	}{
		{"bad-opcode", func(in *sass.Inst) { in.Op = sass.Opcode(0x3ff) }},
		{"ctrl-range", func(in *sass.Inst) { in.Ctrl.Stall = 16 }},
		{"ctrl-range", func(in *sass.Inst) { in.Ctrl.WaitMask = 0x40 }},
		{"ctrl-range", func(in *sass.Inst) { in.Ctrl.Reuse = 0x8 }},
		{"ctrl-range", func(in *sass.Inst) { in.Op = sass.OpLDS; in.Ctrl.WriteBar = 6 }},
		{"ctrl-range", func(in *sass.Inst) { in.Op = sass.OpSTS; in.Ctrl.ReadBar = 6 }},
		{"pred-range", func(in *sass.Inst) { in.Pred = sass.PT + 1 }},
		{"reg-ceiling", func(in *sass.Inst) { in.Rd = 254 }},
		{"reg-ceiling", func(in *sass.Inst) { in.Rs1 = 254 }},
	}
	for _, c := range cases {
		wantRule(t, Check(mk(c.mut)), 0, c.rule)
	}
}

func TestBarrierPlumbing(t *testing.T) {
	t.Run("load-no-writebar", func(t *testing.T) {
		wantRule(t, Check(asm(t, `
			--:-:-:Y:1 LDS R2, [R0]
			--:-:-:Y:15 EXIT`)), 0, "load-no-writebar")
	})
	t.Run("bar-self", func(t *testing.T) {
		wantRule(t, Check(asm(t, `
			--:1:1:Y:1 LDS R2, [R0]
			02:-:-:Y:15 EXIT`)), 0, "bar-self")
	})
	t.Run("bar-unreleased-fp", func(t *testing.T) {
		// A write barrier on FADD never releases: the float pipe does
		// not signal barriers in the machine model.
		wantRule(t, Check(asm(t, `
			--:-:1:Y:5 FADD R2, R0, R0
			--:-:-:Y:15 EXIT`)), 0, "bar-unreleased")
	})
	t.Run("bar-unreleased-readbar-alu", func(t *testing.T) {
		wantRule(t, Check(asm(t, `
			--:1:-:Y:5 IADD3 R2, R0, 0x1, RZ
			02:-:-:Y:15 EXIT`)), 0, "bar-unreleased")
	})
	t.Run("s2r-writebar-ok", func(t *testing.T) {
		// S2R is an ALU-pipe op whose barrier does release.
		wantClean(t, Check(asm(t, `
			--:-:0:Y:1 S2R R0, SR_TID.X
			01:-:-:Y:15 EXIT`)))
	})
	t.Run("wait-never-set", func(t *testing.T) {
		wantRule(t, Check(asm(t, `
			08:-:-:Y:1 NOP
			--:-:-:Y:15 EXIT`)), 0, "wait-never-set")
	})
	t.Run("wait-set-later-ok", func(t *testing.T) {
		// The generated kernels wait on barriers 4/5 in iteration 0
		// before any instruction on that path has set them; the setter
		// exists later in the program text, so this is clean.
		wantClean(t, Check(asm(t, `
			10:-:-:Y:1 NOP
			--:4:-:Y:1 STS [R0], RZ
			10:-:-:Y:15 EXIT`)))
	})
}

func TestControlFlowShape(t *testing.T) {
	t.Run("bad-branch", func(t *testing.T) {
		insts := []sass.Inst{
			{Op: sass.OpBRA, Imm: 100, Pred: sass.PT, Ctrl: sass.DefaultCtrl()},
			{Op: sass.OpEXIT, Pred: sass.PT, Ctrl: sass.DefaultCtrl()},
		}
		wantRule(t, Check(insts), 0, "bad-branch")
	})
	t.Run("no-exit-missing", func(t *testing.T) {
		insts := []sass.Inst{
			{Op: sass.OpMOV, Rd: 1, Rs1: 2, SrcMode: sass.SrcReg, Pred: sass.PT, Ctrl: sass.DefaultCtrl()},
		}
		wantRule(t, Check(insts), 0, "no-exit")
	})
	t.Run("no-exit-predicated", func(t *testing.T) {
		insts := []sass.Inst{
			{Op: sass.OpEXIT, Pred: 0, Ctrl: sass.DefaultCtrl()},
		}
		wantRule(t, Check(insts), 0, "no-exit")
	})
}

func TestAlignment(t *testing.T) {
	t.Run("vec-align-dest", func(t *testing.T) {
		insts := asm(t, `
			--:-:0:Y:1 LDS.128 R5, [R0]
			01:-:-:Y:15 EXIT`)
		wantRule(t, Check(insts), 0, "vec-align")
	})
	t.Run("mem-align", func(t *testing.T) {
		insts := asm(t, `
			--:-:0:Y:1 LDS.64 R2, [R0+0x6]
			01:-:-:Y:15 EXIT`)
		wantRule(t, Check(insts), 0, "mem-align")
	})
	t.Run("aligned-ok", func(t *testing.T) {
		wantClean(t, Check(asm(t, `
			--:-:0:Y:1 LDS.128 R4, [R0+0x10]
			01:-:-:Y:15 EXIT`)))
	})
}

func TestStallRAW(t *testing.T) {
	t.Run("int-too-early", func(t *testing.T) {
		ds := Check(asm(t, `
			--:-:-:Y:2 IADD3 R1, R0, 0x1, RZ
			--:-:-:Y:1 MOV R2, R1
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 1, "stall-raw")
	})
	t.Run("int-covered", func(t *testing.T) {
		wantClean(t, Check(asm(t, `
			--:-:-:Y:5 IADD3 R1, R0, 0x1, RZ
			--:-:-:Y:1 MOV R2, R1
			--:-:-:Y:15 EXIT`)))
	})
	t.Run("fp-chain", func(t *testing.T) {
		// FFMA-to-FFMA needs 4 cycles; stall 2+1 is one short.
		ds := Check(asm(t, `
			--:-:-:Y:2 FFMA R4, R0, R1, R2
			--:-:-:Y:1 NOP
			--:-:-:Y:1 FFMA R6, R4, R1, R2
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 2, "stall-raw")
	})
	t.Run("s2r-needs-barrier", func(t *testing.T) {
		// S2R takes 25 cycles; stall alone rarely covers it, the wait does.
		wantClean(t, Check(asm(t, `
			--:-:0:Y:1 S2R R0, SR_TID.X
			01:-:-:Y:1 MOV R2, R0
			--:-:-:Y:15 EXIT`)))
	})
	t.Run("loop-carried", func(t *testing.T) {
		// The short path around the loop makes the read unsafe even
		// though the fall-through path is fine.
		ds := Check(asm(t, `
			--:-:-:Y:15 IADD3 R1, R0, 0x1, RZ
			top:
			--:-:-:Y:1 MOV R2, R1
			--:-:-:Y:2 IADD3 R1, R1, 0x1, RZ
			--:-:-:Y:1 @P0 BRA top
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 1, "stall-raw")
	})
}

func TestStallWAW(t *testing.T) {
	// An S2R result (25 cycles) overwritten by a MOV (5 cycles) two
	// cycles later: the S2R lands last and clobbers the MOV.
	ds := Check(asm(t, `
		--:-:-:Y:2 S2R R0, SR_TID.X
		--:-:-:Y:15 MOV R0, R1
		--:-:-:Y:15 NOP
		--:-:-:Y:15 EXIT`))
	wantRule(t, ds, 1, "stall-waw")

	// Same-pipe same-latency overwrite is in-order and clean.
	wantClean(t, Check(asm(t, `
		--:-:-:Y:1 MOV R0, R1
		--:-:-:Y:15 MOV R0, R2
		--:-:-:Y:15 EXIT`)))
}

func TestBarrierHazards(t *testing.T) {
	t.Run("bar-raw", func(t *testing.T) {
		ds := Check(asm(t, `
			--:-:2:Y:1 LDS R2, [R0]
			--:-:-:Y:1 FADD R3, R2, R2
			04:-:-:Y:15 EXIT`))
		wantRule(t, ds, 1, "bar-raw")
	})
	t.Run("bar-waw", func(t *testing.T) {
		ds := Check(asm(t, `
			--:-:2:Y:1 LDS R2, [R0]
			--:-:-:Y:1 MOV R2, R0
			04:-:-:Y:15 EXIT`))
		wantRule(t, ds, 1, "bar-waw")
	})
	t.Run("bar-war", func(t *testing.T) {
		// The STS is still reading R2 (read barrier 3 pending) when the
		// MOV rewrites it.
		ds := Check(asm(t, `
			--:3:-:Y:1 STS [R0], R2
			--:-:-:Y:1 MOV R2, R1
			08:-:-:Y:15 EXIT`))
		wantRule(t, ds, 1, "bar-war")
	})
	t.Run("wait-clears", func(t *testing.T) {
		wantClean(t, Check(asm(t, `
			--:-:2:Y:1 LDS R2, [R0]
			04:-:-:Y:4 FADD R3, R2, R2
			--:3:-:Y:1 STS [R0], R3
			08:-:-:Y:1 MOV R3, R0
			--:-:-:Y:15 EXIT`)))
	})
	t.Run("address-advance-ok", func(t *testing.T) {
		// Advancing the *address* register right after a store is the
		// FTF kernel's idiom: addresses latch at issue, only the data
		// registers stay live until the read barrier.
		wantClean(t, Check(asm(t, `
			--:3:-:Y:1 STS [R0], R2
			--:-:-:Y:5 IADD3 R0, R0, 0x10, RZ
			08:-:-:Y:15 EXIT`)))
	})
}

func TestReuseRules(t *testing.T) {
	t.Run("ffma-bank-conflict", func(t *testing.T) {
		ds := Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R8, R10, R12
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 0, "ffma-bank")
	})
	t.Run("ffma-bank-mixed-parity-ok", func(t *testing.T) {
		wantClean(t, Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R9, R10, R12
			--:-:-:Y:15 EXIT`)))
	})
	t.Run("reuse-serves-conflict", func(t *testing.T) {
		// Figure 4: the second FFMA's a-operand comes from the reuse
		// cache, so its three same-parity registers never meet at the
		// register file.
		wantClean(t, Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R8.reuse, R9, R12
			--:-:-:Y:4 FFMA R6, R8, R10, R14
			--:-:-:Y:15 EXIT`)))
	})
	t.Run("latch-dropped-by-plain-fp", func(t *testing.T) {
		// An intervening FP instruction without reuse flags drops the
		// latch, so the conflict is real again.
		ds := Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R8.reuse, R9, R12
			--:-:-:Y:4 FADD R5, R9, R9
			--:-:-:Y:4 FFMA R6, R8, R10, R14
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 2, "ffma-bank")
	})
	t.Run("latch-survives-memory", func(t *testing.T) {
		wantClean(t, Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R8.reuse, R9, R12
			--:3:-:Y:1 STS [R0], R4
			--:-:-:Y:4 FFMA R6, R8, R10, R14
			08:-:-:Y:15 EXIT`)))
	})
	t.Run("reuse-flags-on-nonalu", func(t *testing.T) {
		insts := asm(t, `
			--:-:0:Y:1 LDS R2, [R0]
			01:-:-:Y:15 EXIT`)
		insts[0].Ctrl.Reuse = 1
		wantRule(t, Check(insts), 0, "reuse-flags")
	})
	t.Run("reuse-on-immediate-slot", func(t *testing.T) {
		insts := asm(t, `
			--:-:-:Y:5 IADD3 R1, R0, 0x1, RZ
			--:-:-:Y:15 EXIT`)
		insts[0].Ctrl.Reuse = 2 // slot b holds an immediate
		wantRule(t, Check(insts), 0, "reuse-flags")
	})
	t.Run("reuse-on-rz", func(t *testing.T) {
		insts := asm(t, `
			--:-:-:Y:4 FFMA R4, R8, R9, R12
			--:-:-:Y:15 EXIT`)
		insts[0].Rs0 = sass.RZ
		insts[0].Ctrl.Reuse = 1
		wantRule(t, Check(insts), 0, "reuse-flags")
	})
	t.Run("reuse-stale", func(t *testing.T) {
		// Latching the register the same instruction overwrites.
		wantRule(t, Check(asm(t, `
			--:-:-:Y:4 FFMA R8, R8.reuse, R9, R12
			--:-:-:Y:15 EXIT`)), 0, "reuse-stale")
	})
	t.Run("latch-killed-by-write", func(t *testing.T) {
		// A write to the latched register invalidates the latch: the
		// second FFMA's conflict is reported, not hidden by the cache.
		ds := Check(asm(t, `
			--:-:-:Y:4 FFMA R4, R8.reuse, R9, R12
			--:-:-:Y:4 MOV R8, R1
			--:-:-:Y:1 NOP
			--:-:-:Y:4 FFMA R6, R8, R10, R14
			--:-:-:Y:15 EXIT`))
		wantRule(t, ds, 3, "ffma-bank")
	})
}

// TestCheckSmem pins how the verifier's smem-conflict rule prices one
// derived warp store: a 4-byte stride is conflict-free, an 8-byte stride
// puts lanes l and l+16 on one bank (a 2-way conflict, reported once as
// a warning), and the same 2-way store predicated — the shape of the
// epilogue scatter — is tolerated by the exemption list unless
// exemptions are stripped.
func TestCheckSmem(t *testing.T) {
	store := func(shift int, predicated bool) []sass.Inst {
		sts := "--:1:-:Y:1 STS [R1], RZ"
		if predicated {
			sts = "--:1:-:Y:1 @P0 STS [R1], RZ"
		}
		return asm(t, fmt.Sprintf(`
			--:-:0:Y:2 S2R R0, SR_TID.X
			01:-:-:Y:6 SHF.L R1, R0, 0x%x
			--:-:-:Y:6 ISETP.LT P0, R0, 0x40, PT
			%s
			02:-:-:Y:15 EXIT`, shift, sts))
	}
	verify := func(insts []sass.Inst, opts VerifyOpts) []Diag {
		ds, err := VerifyKernel(&cubin.Kernel{Name: "store", SmemBytes: 4096, Code: sass.EncodeAll(insts)}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	opts := VerifyOpts{Threads: 64}

	wantClean(t, verify(store(2, false), opts))
	ds := verify(store(3, false), opts)
	if len(ds) != 1 || ds[0].Rule != "smem-conflict" || ds[0].Sev != Warn || ds[0].PC != 3 {
		t.Fatalf("8-byte stride: want one smem-conflict warning at pc 3, got %v", ds)
	}
	if !strings.Contains(ds[0].Msg, "1 conflict cycles") {
		t.Errorf("2-way store should cost one conflict cycle: %s", ds[0].Msg)
	}
	wantClean(t, verify(store(3, true), opts))
	opts.NoExemptions = true
	ds = verify(store(3, true), opts)
	if len(ds) != 1 || ds[0].Rule != "smem-conflict" {
		t.Errorf("predicated 2-way store with exemptions stripped: want one smem-conflict, got %v", ds)
	}
}

// TestRulesCatalogue: every catalogue entry is complete and unique, and
// the catalogue's IDs are exactly the rule IDs the passes can emit, read
// from the Rule: "..." literals of this package's non-test files.
func TestRulesCatalogue(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range Rules() {
		if r.ID == "" || r.Summary == "" || r.Paper == "" {
			t.Errorf("rule %+v missing fields", r)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	emitted := emittedRules(t)
	for id := range emitted {
		if !seen[id] {
			t.Errorf("rule %s is emitted but not in the catalogue", id)
		}
	}
	for id := range seen {
		if !emitted[id] {
			t.Errorf("catalogue rule %s is never emitted", id)
		}
	}
}

// emittedRules parses this package's non-test files and returns the
// value of every Rule: "..." field they set. A Rule field set from
// anything but a string literal fails the test, since it would hide an
// emitted ID from the catalogue check.
func emittedRules(t *testing.T) map[string]bool {
	t.Helper()
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	ids := map[string]bool{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return true
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Rule" {
				return true
			}
			lit, ok := kv.Value.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: Rule set from a non-literal", fset.Position(kv.Pos()))
				return true
			}
			id, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			ids[id] = true
			return true
		})
	}
	return ids
}

func TestDiagString(t *testing.T) {
	d := Diag{Rule: "stall-raw", PC: 7, Sev: Error, Msg: "m", Hint: "h"}
	if got := d.String(); got != "pc 7: error: stall-raw: m (fix: h)" {
		t.Errorf("got %q", got)
	}
	d = Diag{Rule: "stall-raw", PC: -1, Sev: Warn, Msg: "m"}
	if got := d.String(); got != "kernel: warn: stall-raw: m" {
		t.Errorf("got %q", got)
	}
}
