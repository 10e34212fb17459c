// Package sasscheck statically verifies assembled SASS instruction
// streams against the scheduling contract the paper's kernels are built
// on: on Volta/Turing the hardware does not interlock, so stall counts
// must cover fixed latencies, dependency barriers must guard every
// variable-latency producer/consumer pair (Section 5.1.4), FFMA operand
// triples must respect the two-bank register file (Section 6.1, Figure
// 4), and shared-memory access patterns must respect the 32-bank phase
// model (Section 4.3, Figures 3 and 5).
//
// The checker runs between the assembler and the simulator: it consumes
// the same []sass.Inst that turingas produces and gpu.Sim executes, and
// it shares the simulator's latency table and register-set analysis
// (internal/gpu's exported analysis surface), so a diagnostic here is a
// prediction about what the dynamic hazard checker could observe —
// proven over every path of the program rather than the paths one
// launch happens to execute.
package sasscheck

import (
	"fmt"
	"sort"

	"repro/internal/cubin"
	"repro/internal/sass"
)

// Severity grades a diagnostic.
type Severity uint8

const (
	// Warn marks a performance hazard or a suspicious-but-executable
	// encoding; the kernel runs, but not as intended.
	Warn Severity = iota
	// Error marks a correctness hazard: the machine model can read a
	// stale value, deadlock, or reject the instruction outright.
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Diag is one structured diagnostic: which rule fired, where, how bad,
// and what to do about it.
type Diag struct {
	Rule string   // rule ID (see Rules)
	PC   int      // instruction index in the stream; -1 for non-instruction diagnostics
	Sev  Severity // Error or Warn
	Msg  string   // what is wrong
	Hint string   // how to fix it
}

func (d Diag) String() string {
	loc := fmt.Sprintf("pc %d", d.PC)
	if d.PC < 0 {
		loc = "kernel"
	}
	s := fmt.Sprintf("%s: %s: %s: %s", loc, d.Sev, d.Rule, d.Msg)
	if d.Hint != "" {
		s += " (fix: " + d.Hint + ")"
	}
	return s
}

// Rule describes one lint rule for -rules listings and documentation.
type Rule struct {
	ID      string
	Summary string
	Paper   string // the paper section/figure the rule encodes
}

// Rules returns the rule catalogue in documentation order.
func Rules() []Rule {
	return []Rule{
		{"bad-opcode", "every instruction must carry a defined opcode", "Section 5.1.1"},
		{"ctrl-range", "control-code fields within encoding range: stall <= 15, barrier <= 5, wait mask <= 0x3f, reuse <= 0x7", "Section 5.1.4"},
		{"pred-range", "predicate indices limited to P0..P6 and PT", "Section 5.2.1"},
		{"reg-ceiling", "register high-water at most R253", "Section 6.2 (spill threshold)"},
		{"bad-branch", "branch targets must land inside the instruction stream", "Section 5.1"},
		{"no-exit", "control flow must not run off the end of the kernel", "Section 5.1"},
		{"vec-align", "wide loads/stores need vector-aligned register operands", "Section 5.1.2"},
		{"mem-align", "memory immediate offsets aligned to the access width", "Section 5.1.2"},
		{"load-no-writebar", "every LDG/LDS load sets a write dependency barrier", "Section 5.1.4"},
		{"bar-unreleased", "barriers only on instructions the machine releases them from", "Section 5.1.4"},
		{"bar-self", "read and write barrier of one instruction must differ", "Section 5.1.4"},
		{"wait-never-set", "wait masks only on barriers some instruction sets", "Section 5.1.4"},
		{"stall-raw", "stall counts cover fixed result latencies on every path", "Section 5.1.4, Table 2"},
		{"stall-waw", "cross-pipe overwrites cannot complete before the earlier write", "Section 5.1.4"},
		{"bar-raw", "no read of an in-flight load destination before waiting its write barrier", "Section 5.1.4"},
		{"bar-waw", "no overwrite of an in-flight load destination before waiting its write barrier", "Section 5.1.4"},
		{"bar-war", "no overwrite of a pending store's data registers before waiting its read barrier", "Section 5.1.4"},
		{"reuse-flags", "reuse bits only on register source slots of ALU instructions", "Section 6.1"},
		{"reuse-stale", "a latched reuse operand must not be overwritten by its own instruction", "Section 6.1"},
		{"ffma-bank", "FP operand triples must not all read one 64-bit register bank", "Section 6.1, Figure 4"},
		{"smem-race", "no write-write or read-write shared-memory overlap between warps within one barrier interval", "Section 4.3, Figure 3 (verifier)"},
		{"smem-bounds", "every STS/LDS stays inside the declared shared memory, aligned to its width", "Section 4.2 (verifier)"},
		{"bar-divergent", "no BAR.SYNC reachable under divergent predication", "Section 5.2.1 (verifier)"},
		{"smem-conflict", "derived shared-memory access patterns free of unexempted bank conflicts", "Section 4.3, Figures 3 and 5 (verifier)"},
		{"absint-limit", "the verifier resolved every address and branch it needed to prove the above", "Section 4 (verifier)"},
	}
}

// Check runs every instruction-stream rule over insts and returns the
// diagnostics sorted by instruction index. A nil result means the
// stream is clean. Shared-memory addresses live in registers, so bank
// conflicts, races and bounds are proven by VerifyKernel, which derives them
// from the instruction stream.
func Check(insts []sass.Inst) []Diag {
	var ds []Diag
	emit := func(d Diag) { ds = append(ds, d) }
	structuralPass(insts, emit)
	bankPass(insts, emit)
	dataflowPass(insts, emit)
	sort.SliceStable(ds, func(i, j int) bool {
		if ds[i].PC != ds[j].PC {
			return ds[i].PC < ds[j].PC
		}
		return ds[i].Rule < ds[j].Rule
	})
	return ds
}

// CheckKernel decodes an assembled kernel and checks its instruction
// stream.
func CheckKernel(k *cubin.Kernel) ([]Diag, error) {
	insts, err := k.Decode()
	if err != nil {
		return nil, fmt.Errorf("sasscheck: %s does not decode: %w", k.Name, err)
	}
	return Check(insts), nil
}
