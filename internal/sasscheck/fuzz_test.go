package sasscheck_test

import (
	"testing"

	"repro/internal/cubin"
	"repro/internal/gpu"
	"repro/internal/sass"
	"repro/internal/sasscheck"
)

// fuzzOps is the opcode menu the fuzzer draws from: the full ISA.
var fuzzOps = []sass.Opcode{
	sass.OpNOP, sass.OpFFMA, sass.OpFADD, sass.OpFMUL, sass.OpMOV,
	sass.OpIADD3, sass.OpIMAD, sass.OpISETP, sass.OpLOP3, sass.OpSHF,
	sass.OpSEL, sass.OpS2R, sass.OpP2R, sass.OpR2P, sass.OpLDG,
	sass.OpSTG, sass.OpLDS, sass.OpSTS, sass.OpBAR, sass.OpBRA,
	sass.OpEXIT,
}

const (
	fuzzInstBytes = 8
	fuzzMaxInsts  = 48
	fuzzSmemBytes = 256
	fuzzThreads   = 64
)

// fuzzReg maps a fuzz byte to R0..R15 or RZ, keeping streams inside a
// small register file while still exercising the zero register.
func fuzzReg(b byte) sass.Reg {
	if v := b % 17; v < 16 {
		return sass.Reg(v)
	}
	return sass.RZ
}

// synthProgram decodes raw fuzz bytes into a structurally valid SASS
// stream: defined opcodes, in-range registers and predicates, branch
// targets inside the stream, and a terminating EXIT. Control codes are
// the conservative default (stall 15, no dependency barriers), so the
// stream is schedule-safe by construction and any diagnostic the
// verifier or the oracle raises is about memory or control flow, not
// scheduling. The second result reports whether every branch is
// forward: such streams terminate on the simulator and are launched
// for the differential check; backward-branching streams exercise the
// verifier's widening but are analyzed statically only.
func synthProgram(data []byte) ([]sass.Inst, bool) {
	n := len(data) / fuzzInstBytes
	if n > fuzzMaxInsts {
		n = fuzzMaxInsts
	}
	insts := make([]sass.Inst, 0, n+1)
	executable := true
	for i := 0; i < n; i++ {
		b := data[i*fuzzInstBytes : (i+1)*fuzzInstBytes]
		in := sass.Inst{
			Op:      fuzzOps[int(b[0])%len(fuzzOps)],
			Pred:    sass.Pred(b[1] % 8),
			PredNeg: b[1]&0x80 != 0,
			Rd:      fuzzReg(b[2]),
			Rs0:     fuzzReg(b[3]),
			Rs1:     fuzzReg(b[4]),
			Rs2:     fuzzReg(b[5]),
			SrcPred: sass.PT,
			Ctrl:    sass.DefaultCtrl(),
		}
		switch b[6] % 3 {
		case 0:
			in.SrcMode = sass.SrcReg
		case 1:
			in.SrcMode = sass.SrcImm
			in.Imm = uint32(b[7])
		case 2:
			in.SrcMode = sass.SrcConst
			in.ConstOfs = uint16(b[7]%16) * 4
		}
		switch in.Op {
		case sass.OpS2R:
			in.Imm = uint32(b[7] % 7)
		case sass.OpP2R, sass.OpR2P:
			in.Imm = uint32(b[7]) & 0x7f
		case sass.OpLDG, sass.OpSTG, sass.OpLDS, sass.OpSTS:
			in.Width = []sass.MemWidth{sass.W32, sass.W64, sass.W128}[b[6]%3]
			in.Imm = uint32(b[7])
		case sass.OpISETP:
			in.Cmp = sass.CmpOp(b[6] % 6)
			in.Pd = sass.Pred(b[7] % 7)
			in.SrcPred = sass.Pred(b[6] >> 5)
		case sass.OpLOP3:
			in.Lut = b[7]
		case sass.OpSEL:
			in.SrcPred = sass.Pred(b[7] % 8)
		case sass.OpSHF:
			in.ShRight = b[7]&1 != 0
		case sass.OpBRA:
			if b[6]&0x8 != 0 && i > 0 {
				// Backward branch: a loop. The verifier must widen its
				// way to a fixpoint, but the simulator could spin, so
				// the stream is not launched.
				in.Imm = uint32(-(int32(b[7])%int32(i+1) + 1))
				executable = false
			} else {
				// Forward branch landing between the next instruction
				// and the appended EXIT.
				in.Imm = uint32(int(b[7]) % (n - i))
			}
		}
		insts = append(insts, in)
	}
	insts = append(insts, sass.Inst{Op: sass.OpEXIT, Pred: sass.PT, SrcPred: sass.PT, Ctrl: sass.DefaultCtrl()})
	return insts, executable
}

// FuzzAbsInt feeds the abstract interpreter arbitrary structurally
// valid SASS and checks its two contracts. First, VerifyKernel never
// panics on the encoded stream,
// whatever the control flow or address arithmetic. Second — soundness,
// on executable (forward-branching) streams: the program is encoded,
// launched on the simulator with the dynamic shared-memory oracle
// attached, and every concrete finding the oracle logs must be covered
// by a static report of the same rule at the finding's pc (or its
// partner's), unless the verifier already declared the stream beyond
// its precision with an absint-limit error. A dynamic finding with no
// static counterpart is a soundness hole.
func FuzzAbsInt(f *testing.F) {
	f.Add([]byte{})
	// Write-write race: every lane stores R0 to [RZ].
	f.Add([]byte{
		11, 7, 0, 0, 0, 0, 0, 0, // S2R R0, SR_TID.X
		17, 7, 0, 16, 0, 0, 0, 0, // STS [RZ], R0
	})
	// Divergent barrier: BAR guarded by a lane-dependent predicate.
	f.Add([]byte{
		11, 7, 0, 0, 0, 0, 0, 6, // S2R R0, SR_LANEID
		7, 7, 0, 0, 0, 0, 13, 4, // ISETP.EQ P4, R0, 0x10, PT
		18, 4, 0, 0, 0, 0, 0, 0, // @P4 BAR.SYNC
	})
	// Wide store near the end of the declared window, then a loop.
	f.Add([]byte{
		11, 7, 1, 0, 0, 0, 0, 0, // S2R R1, SR_TID.X
		17, 7, 0, 1, 0, 1, 2, 250, // STS.128 [R1+250], R1
		19, 7, 0, 0, 0, 0, 8, 1, // BRA backward
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		insts, executable := synthProgram(data)
		// The verifier and the simulator see the identical program: the
		// stream encoded into one kernel.
		k := &cubin.Kernel{Name: "fuzz", NumRegs: 32, SmemBytes: fuzzSmemBytes, BarCount: 1, Code: sass.EncodeAll(insts)}
		ds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: fuzzThreads}) // must not panic
		if err != nil {
			t.Fatalf("synthesized program does not decode: %v", err)
		}
		if !executable {
			return
		}

		limited := false
		staticAt := map[string]map[int]bool{}
		for _, d := range ds {
			if d.Rule == "absint-limit" {
				limited = true
			}
			if staticAt[d.Rule] == nil {
				staticAt[d.Rule] = map[int]bool{}
			}
			staticAt[d.Rule][d.PC] = true
		}

		sim := gpu.NewSim(gpu.RTX2070())
		sim.Oracle = &gpu.SmemOracle{}
		// Launch errors (global OOB, rejected shared access, divergent
		// branch) are expected on fuzzed streams; the soundness check is
		// about what the oracle observed before any abort.
		_, _ = sim.Launch(k, gpu.LaunchOpts{Grid: 1, Block: fuzzThreads})
		for _, fd := range sim.Oracle.Findings() {
			if limited {
				// The verifier gave up on some path; its clean rules make
				// no claim about this stream.
				break
			}
			if staticAt[fd.Kind][fd.PC] || (fd.OtherPC >= 0 && staticAt[fd.Kind][fd.OtherPC]) {
				continue
			}
			t.Errorf("dynamic finding with no static report: %s\nprogram:", fd)
			decoded, _ := k.Decode() // decoded once already, by VerifyKernel
			for pc, in := range decoded {
				t.Errorf("  %2d: %s", pc, in)
			}
			t.Errorf("static: %v", ds)
		}
	})
}
