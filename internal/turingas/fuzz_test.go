package turingas_test

import (
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sass"
	"repro/internal/turingas"
)

// seedSources builds the corpus from the repository's real kernel
// generators: main kernels in both paper and cuDNN-like configurations,
// a main-loop-only variant, and the filter-transform kernel recovered
// through the disassembler (which also seeds disassembler syntax —
// synthetic labels, explicit control prefixes).
func seedSources(tb testing.TB) []string {
	tb.Helper()
	var seeds []string
	p := kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		for _, mainOnly := range []bool{false, true} {
			src, err := kernels.Source(cfg, p, mainOnly)
			if err != nil {
				tb.Fatalf("kernel source: %v", err)
			}
			seeds = append(seeds, src)
		}
	}
	ftf, err := kernels.GenerateFTF(64)
	if err != nil {
		tb.Fatalf("FTF: %v", err)
	}
	ftfSrc, err := turingas.Disassemble(ftf)
	if err != nil {
		tb.Fatalf("disassemble FTF: %v", err)
	}
	seeds = append(seeds, ftfSrc)
	// Hand-written corners: aliases, .equ arithmetic, predicated memory,
	// labels and a backward branch, multiple kernels per module.
	seeds = append(seeds,
		`.kernel tiny
--:-:-:Y:5  EXIT;
.endkernel`,
		`.kernel corners
.regs 32
.smem 256
.params 16
.alias acc, R4
.equ STRIDE, 64
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  MOV acc, STRIDE;
loop:
--:-:-:Y:6  IADD3 acc, acc, 0xffffffff, RZ;
--:-:-:Y:6  ISETP.GT P0, acc, RZ;
--:-:-:Y:5  @P0 BRA loop;
--:-:1:-:2  @!P0 LDG.64 R8, [R0+0x10];
02:2:-:-:2  STS.64 [R0], R8;
--:-:-:Y:5  EXIT;
.endkernel
.kernel second
--:-:-:Y:6  FFMA R1, R2, R3.reuse, R1;
--:-:-:Y:5  EXIT;
.endkernel`,
	)
	return seeds
}

// FuzzAssembleRoundTrip asserts the assembler's core contract: on any
// input it either returns an error or produces a module whose every
// kernel decodes cleanly and re-encodes to the identical bits — and it
// never panics, no matter how the source is mutated. Each input is
// assembled twice, the second time with its lines in the memo, and both
// must give the same module or the same error.
func FuzzAssembleRoundTrip(f *testing.F) {
	for _, s := range seedSources(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		state := turingas.NewState()
		mod, err := state.Assemble(src)
		again, errAgain := state.Assemble(src)
		if (err == nil) != (errAgain == nil) || err != nil && err.Error() != errAgain.Error() {
			t.Fatalf("assembling twice: %v, then %v", err, errAgain)
		}
		if err != nil {
			return // rejected input; the only requirement is no panic
		}
		if !reflect.DeepEqual(mod.Kernels, again.Kernels) {
			t.Fatalf("assembling twice gave different modules")
		}
		for i := range mod.Kernels {
			k := &mod.Kernels[i]
			insts, err := k.Decode()
			if err != nil {
				t.Fatalf("kernel %q assembled but does not decode: %v", k.Name, err)
			}
			words := sass.EncodeAll(insts)
			if len(words) != len(k.Code) {
				t.Fatalf("kernel %q: re-encode produced %d words, assembler produced %d", k.Name, len(words), len(k.Code))
			}
			for pc := range words {
				if words[pc] != k.Code[pc] {
					t.Fatalf("kernel %q pc %d: decode→re-encode changed bits: %016x%016x -> %016x%016x\ninst: %s",
						k.Name, pc, k.Code[pc].Hi, k.Code[pc].Lo, words[pc].Hi, words[pc].Lo, insts[pc].String())
				}
			}
		}
	})
}

// TestAssembleRoundTripSeeds runs the round-trip property over the whole
// seed corpus in a normal test run, so the invariant is exercised even
// when fuzzing is not.
func TestAssembleRoundTripSeeds(t *testing.T) {
	for i, src := range seedSources(t) {
		mod, err := turingas.Assemble(src)
		if err != nil {
			t.Fatalf("seed %d does not assemble: %v", i, err)
		}
		for ki := range mod.Kernels {
			k := &mod.Kernels[ki]
			insts, err := k.Decode()
			if err != nil {
				t.Fatalf("seed %d kernel %q: %v", i, k.Name, err)
			}
			words := sass.EncodeAll(insts)
			for pc := range words {
				if words[pc] != k.Code[pc] {
					t.Fatalf("seed %d kernel %q pc %d: re-encode not bit-stable (%s)",
						i, k.Name, pc, insts[pc].String())
				}
			}
		}
	}
}
