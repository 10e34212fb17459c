package turingas_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sass"
	"repro/internal/turingas"
)

// kernelSources returns whole kernels from the repository's real
// generators: main kernels in both paper and cuDNN-like configurations,
// a main-loop-only variant, and the filter-transform kernel recovered
// through the disassembler (which also brings disassembler syntax —
// synthetic labels, explicit control prefixes).
func kernelSources(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	p := kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		for _, mainOnly := range []bool{false, true} {
			src, err := kernels.Source(cfg, p, mainOnly)
			if err != nil {
				tb.Fatalf("kernel source: %v", err)
			}
			srcs = append(srcs, src)
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
	return append(srcs, ftfSrc)
}

// Hand-written corners: aliases, .equ arithmetic, predicated memory,
// labels and a backward branch, multiple kernels per module.
var handSeeds = []string{
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
}

// excerptLines bounds a fuzz seed. The fuzzer minimizes every input
// that finds new coverage before it goes on, and minimizing costs about
// the square of the input's length in executions. Whole generated
// kernels (about 90 KB) or even 40-line excerpts can spend a whole 10 s
// run minimizing its first find; 20-line seeds leave it fuzzing.
const excerptLines = 20

// excerpts cuts one generated kernel into seeds of at most excerptLines
// lines each: its leading directives, then one window of its body, cut
// at a line boundary and closed with .endkernel. The windows cover the
// whole body. A window that branches to a label outside it does not
// assemble and is left out, so every seed starts as valid input.
func excerpts(src string) []string {
	lines := strings.Split(strings.TrimSpace(src), "\n")
	head := 0
	for head < len(lines) && strings.HasPrefix(lines[head], ".") {
		head++
	}
	body := lines[head : len(lines)-1] // drop .endkernel
	step := excerptLines - head - 1
	var seeds []string
	for i := 0; i < len(body); i += step {
		window := append(append(slices.Clone(lines[:head]), body[i:min(i+step, len(body))]...), ".endkernel")
		seed := strings.Join(window, "\n")
		if _, err := turingas.Assemble(seed); err == nil {
			seeds = append(seeds, seed)
		}
	}
	return seeds
}

// checkRoundTrip is the assembler's core contract on one input: it
// either returns an error or produces a module whose every kernel
// decodes cleanly and re-encodes to the identical bits, and it never
// panics. The input is assembled twice in one state, the second time
// with its lines in the memo, and both must give the same module or the
// same error, which checkRoundTrip returns.
func checkRoundTrip(t *testing.T, src string) error {
	t.Helper()
	state := turingas.NewState()
	mod, err := state.Assemble(src)
	again, errAgain := state.Assemble(src)
	if (err == nil) != (errAgain == nil) || err != nil && err.Error() != errAgain.Error() {
		t.Fatalf("assembling twice: %v, then %v", err, errAgain)
	}
	if err != nil {
		return err
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
	return nil
}

// FuzzAssembleRoundTrip holds every input, however mutated, to
// checkRoundTrip; a rejected input only must not panic. It is seeded
// with excerpts of every generated kernel and the hand-written corners,
// so each exec assembles at most excerptLines lines twice;
// TestAssembleRoundTripSeeds holds the whole kernels to the same
// contract.
func FuzzAssembleRoundTrip(f *testing.F) {
	for _, src := range kernelSources(f) {
		for _, seed := range excerpts(src) {
			f.Add(seed)
		}
	}
	for _, seed := range handSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) { checkRoundTrip(t, src) })
}

// TestAssembleRoundTripSeeds runs the round-trip property in a normal
// test run over the whole generated kernels, the hand-written corners
// and every fuzz seed cut from the kernels, each of which must
// assemble; every kernel must give at least one excerpt.
func TestAssembleRoundTripSeeds(t *testing.T) {
	for i, src := range kernelSources(t) {
		seeds := excerpts(src)
		if len(seeds) == 0 {
			t.Fatalf("kernel %d gives no excerpt that assembles", i)
		}
		for j, seed := range append(seeds, src) {
			if n := strings.Count(seed, "\n") + 1; j < len(seeds) && n > excerptLines {
				t.Fatalf("kernel %d excerpt %d has %d lines, want <= %d", i, j, n, excerptLines)
			}
			if err := checkRoundTrip(t, seed); err != nil {
				t.Fatalf("kernel %d seed %d does not assemble: %v", i, j, err)
			}
		}
	}
	for i, src := range handSeeds {
		if err := checkRoundTrip(t, src); err != nil {
			t.Fatalf("hand-written seed %d does not assemble: %v", i, err)
		}
	}
}
