package sasscheck_test

import (
	"strings"
	"testing"

	"repro/internal/cubin"
	"repro/internal/sass"
	"repro/internal/sasscheck"
)

// mkInst builds one instruction with the neutral defaults the verifier
// tests need: PT guards, RZ operands, 32-bit width, default control.
func mkInst(op sass.Opcode, f func(*sass.Inst)) sass.Inst {
	in := sass.Inst{Op: op, Pred: sass.PT, Rd: sass.RZ, Rs0: sass.RZ, Rs1: sass.RZ, Rs2: sass.RZ,
		Pd: sass.PT, SrcPred: sass.PT, Width: sass.W32, Ctrl: sass.DefaultCtrl()}
	if f != nil {
		f(&in)
	}
	return in
}

// verifyStream verifies a raw instruction stream, encoded into a kernel
// that declares smemBytes of shared memory.
func verifyStream(t *testing.T, insts []sass.Inst, smemBytes int, opts sasscheck.VerifyOpts) []sasscheck.Diag {
	t.Helper()
	ds, err := sasscheck.VerifyKernel(&cubin.Kernel{Name: "stream", SmemBytes: smemBytes, Code: sass.EncodeAll(insts)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// rulesOf collects the distinct rule IDs of a diagnostic list.
func rulesOf(ds []sasscheck.Diag) map[string]bool {
	m := map[string]bool{}
	for _, d := range ds {
		m[d.Rule] = true
	}
	return m
}

// TestVerifyNegatives feeds the interpreter minimal kernels that each
// violate exactly one rule and checks the right diagnostic fires — and
// that inserting the missing barrier makes the finding go away.
func TestVerifyNegatives(t *testing.T) {
	opts := sasscheck.VerifyOpts{Threads: 64}

	// Write tid*4, then read (tid^32)*4 — a cross-warp exchange.
	exchange := func(withBar bool) []sass.Inst {
		insts := []sass.Inst{
			mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
			mkInst(sass.OpSHF, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = 2 }),
			mkInst(sass.OpLOP3, func(in *sass.Inst) { // R2 = R1 ^ 128 = ((tid^32)*4)
				in.Rd = 2
				in.Rs0 = 1
				in.SrcMode = sass.SrcImm
				in.Imm = 128
				in.Lut = 0x3c
			}),
			mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Rs2 = 0 }),
		}
		if withBar {
			insts = append(insts, mkInst(sass.OpBAR, nil))
		}
		return append(insts,
			mkInst(sass.OpLDS, func(in *sass.Inst) { in.Rd = 3; in.Rs0 = 2; in.Ctrl.WriteBar = 0 }),
			mkInst(sass.OpEXIT, func(in *sass.Inst) { in.Ctrl.WaitMask = 1 }),
		)
	}

	cases := []struct {
		name  string
		insts []sass.Inst
		want  string // rule that must fire; "" means must verify clean
	}{
		{
			// Every thread of every warp stores to address 0.
			name: "ww-race",
			insts: []sass.Inst{
				mkInst(sass.OpSTS, nil),
				mkInst(sass.OpEXIT, nil),
			},
			want: "smem-race",
		},
		{name: "rw-race-missing-bar", insts: exchange(false), want: "smem-race"},
		{name: "rw-with-bar-clean", insts: exchange(true), want: ""},
		{
			// STS at tid*4 + 0x1000 with only 4096 bytes declared.
			name: "oob-sts",
			insts: []sass.Inst{
				mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
				mkInst(sass.OpSHF, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = 2 }),
				mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Imm = 0x1000; in.Rs2 = 0 }),
				mkInst(sass.OpEXIT, nil),
			},
			want: "smem-bounds",
		},
		{
			// STS at tid*4 + 2: misaligned for a 32-bit access.
			name: "misaligned-sts",
			insts: []sass.Inst{
				mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
				mkInst(sass.OpSHF, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = 2 }),
				mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Imm = 2; in.Rs2 = 0 }),
				mkInst(sass.OpEXIT, nil),
			},
			want: "smem-bounds",
		},
		{
			// @P0 BAR with P0 = lane < 16: diverges inside every warp.
			name: "divergent-bar",
			insts: []sass.Inst{
				mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRLaneID }),
				mkInst(sass.OpISETP, func(in *sass.Inst) {
					in.Pd = 0
					in.Rs0 = 0
					in.SrcMode = sass.SrcImm
					in.Imm = 16
					in.Cmp = sass.CmpLT
				}),
				mkInst(sass.OpBAR, func(in *sass.Inst) { in.Pred = 0 }),
				mkInst(sass.OpEXIT, nil),
			},
			want: "bar-divergent",
		},
		{
			// A loop with a parameter-dependent trip count sweeping an STS
			// pointer: the address widens to a stride set the verifier
			// cannot bound, which must surface as absint-limit, not
			// silence.
			name: "widened-loop-sts",
			insts: []sass.Inst{
				mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
				mkInst(sass.OpSHF, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = 2 }),
				mkInst(sass.OpMOV, func(in *sass.Inst) { in.Rd = 2; in.SrcMode = sass.SrcConst }), // trip count from a kernel parameter
				// loop top:
				mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Rs2 = 0 }),
				mkInst(sass.OpIADD3, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 1; in.SrcMode = sass.SrcImm; in.Imm = 0x20 }),
				mkInst(sass.OpIADD3, func(in *sass.Inst) { in.Rd = 2; in.Rs0 = 2; in.SrcMode = sass.SrcImm; in.Imm = ^uint32(0) }),
				mkInst(sass.OpISETP, func(in *sass.Inst) {
					in.Pd = 6
					in.Rs0 = 2
					in.SrcMode = sass.SrcImm
					in.Imm = 0
					in.Cmp = sass.CmpGT
				}),
				mkInst(sass.OpBRA, func(in *sass.Inst) { in.Pred = 6; in.Imm = ^uint32(4) }), // -5: back to loop top
				mkInst(sass.OpEXIT, nil),
			},
			want: "absint-limit",
		},
		{
			// A divergence-free kernel with disjoint per-thread accesses
			// and a barrier between write and read rounds verifies clean.
			name: "clean-roundtrip",
			insts: []sass.Inst{
				mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
				mkInst(sass.OpSHF, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = 2 }),
				mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Rs2 = 0 }),
				mkInst(sass.OpBAR, nil),
				mkInst(sass.OpLDS, func(in *sass.Inst) { in.Rd = 3; in.Rs0 = 1; in.Ctrl.WriteBar = 0 }),
				mkInst(sass.OpEXIT, func(in *sass.Inst) { in.Ctrl.WaitMask = 1 }),
			},
			want: "",
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds := verifyStream(t, tc.insts, 4096, opts)
			got := rulesOf(ds)
			if tc.want == "" {
				if len(ds) != 0 {
					t.Fatalf("want clean, got %v", ds)
				}
				return
			}
			if !got[tc.want] {
				t.Fatalf("want a %s diagnostic, got %v", tc.want, ds)
			}
			for _, d := range ds {
				if d.Sev != sasscheck.Error {
					t.Errorf("verifier findings must be errors, got %v", d)
				}
			}
		})
	}
}

// TestVerifyBankConflicts is the negative control for the derived
// bank-conflict rule, the Figure-5 argument in miniature: a store at
// tid*128 puts every lane of a warp on bank 0 and must be reported
// exactly once, while the +1-word padded stride tid*132 spreads the
// lanes over all 32 banks and verifies clean. Conflicts are Warn
// findings, which is why this is not a TestVerifyNegatives case.
func TestVerifyBankConflicts(t *testing.T) {
	store := func(stride uint32) []sass.Inst {
		return []sass.Inst{
			mkInst(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
			mkInst(sass.OpIMAD, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = stride }),
			mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 1; in.Rs2 = 0 }),
			mkInst(sass.OpEXIT, nil),
		}
	}
	opts := sasscheck.VerifyOpts{Threads: 64}

	ds := verifyStream(t, store(128), 16384, opts)
	if len(ds) != 1 || ds[0].Rule != "smem-conflict" || ds[0].Sev != sasscheck.Warn || ds[0].PC != 2 {
		t.Fatalf("unpadded stride: want one smem-conflict warning at pc 2, got %v", ds)
	}
	if ds := verifyStream(t, store(132), 16384, opts); len(ds) != 0 {
		t.Fatalf("padded stride: want clean, got %v", ds)
	}
}

// TestVerifyRaceDedup pins the diagnostic granularity: one smem-race
// per instruction pair, not one per overlapping byte range.
func TestVerifyRaceDedup(t *testing.T) {
	// 64 threads all store to address 0 — thousands of overlapping
	// pairs, one static cause.
	insts := []sass.Inst{
		mkInst(sass.OpSTS, nil),
		mkInst(sass.OpEXIT, nil),
	}
	ds := verifyStream(t, insts, 4096, sasscheck.VerifyOpts{Threads: 64})
	n := 0
	for _, d := range ds {
		if d.Rule == "smem-race" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want exactly 1 smem-race for one conflicting instruction pair, got %d: %v", n, ds)
	}
}

// TestVerifyUnresolvableAddress checks the soundness contract: when the
// verifier cannot resolve an address it must say so (absint-limit)
// rather than pass the kernel silently.
func TestVerifyUnresolvableAddress(t *testing.T) {
	insts := []sass.Inst{
		mkInst(sass.OpLDG, func(in *sass.Inst) { in.Rd = 0; in.Rs0 = sass.RZ; in.Ctrl.WriteBar = 0 }),
		mkInst(sass.OpSTS, func(in *sass.Inst) { in.Rs0 = 0; in.Rs2 = 0; in.Ctrl.WaitMask = 1 }),
		mkInst(sass.OpEXIT, nil),
	}
	ds := verifyStream(t, insts, 4096, sasscheck.VerifyOpts{Threads: 64})
	if !rulesOf(ds)["absint-limit"] {
		t.Fatalf("STS through a loaded value must report absint-limit, got %v", ds)
	}
}

// TestRuleIDsUnique guards the rule catalogue against colliding IDs,
// which would make -rules filtering ambiguous.
func TestRuleIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range sasscheck.Rules() {
		if r.ID == "" {
			t.Fatalf("rule with empty ID: %+v", r)
		}
		if strings.ContainsAny(r.ID, ", \t") {
			t.Errorf("rule ID %q contains separator characters; it must be usable in a comma-separated -rules list", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate rule ID %q", r.ID)
		}
		seen[r.ID] = true
		if r.Summary == "" || r.Paper == "" {
			t.Errorf("rule %s is missing summary or paper reference", r.ID)
		}
	}
}

// TestExemptionsEnumerated pins the shape of the exemption surface:
// every entry names a rule from the catalogue, and only the conflict
// rule may carry exemptions — races, bounds, and divergence have none
// by contract (exemptions.go).
func TestExemptionsEnumerated(t *testing.T) {
	rules := map[string]bool{}
	for _, r := range sasscheck.Rules() {
		rules[r.ID] = true
	}
	ids := map[string]bool{}
	for _, e := range sasscheck.Exemptions() {
		if e.ID == "" || e.Why == "" || e.Match == nil {
			t.Fatalf("exemption %q is missing ID, rationale, or matcher", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate exemption ID %q", e.ID)
		}
		ids[e.ID] = true
		if !rules[e.Rule] {
			t.Errorf("exemption %s names unknown rule %q", e.ID, e.Rule)
		}
		if e.Rule != "smem-conflict" {
			t.Errorf("exemption %s suppresses %s; only smem-conflict findings may be exempted", e.ID, e.Rule)
		}
	}
}
