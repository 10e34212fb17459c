package turingas_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cubin"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/par"
	"repro/internal/sass"
	"repro/internal/tune"
	"repro/internal/turingas"
)

// sweepSources returns, per registered device, the text of every kernel
// a tune sweep keys on that device (the static-prune survivors of every
// case, at the tuner's default budget of 12).
func sweepSources(tb testing.TB, quick bool) map[string][]string {
	tb.Helper()
	out := map[string][]string{}
	cands := tune.DefaultSpace().Enumerate()
	for _, name := range gpu.DeviceNames() {
		dev, err := gpu.DeviceByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range tune.SweepCases(quick) {
			var stats tune.PruneStats
			for _, cfg := range tune.StaticPrune(dev, c.P, cands, 12, &stats) {
				src, err := kernels.Source(cfg, c.P, false)
				if err != nil {
					tb.Fatalf("%s %s: %v", c.Tag, cfg.Key(), err)
				}
				out[name] = append(out[name], src)
			}
		}
	}
	return out
}

// generatedText returns the FTF and GEMM kernels as source text, through
// the disassembler: their generators hand the assembler text that never
// leaves the package.
func generatedText(tb testing.TB) []string {
	tb.Helper()
	ftf, err := kernels.GenerateFTF(64)
	if err != nil {
		tb.Fatal(err)
	}
	gemm, err := kernels.GenerateBatchedGEMM(kernels.Ours(), kernels.GemmProblem{M: 128, N: 128, K: 64, Batch: 16})
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	for _, k := range []*cubin.Kernel{ftf, gemm} {
		src, err := turingas.Disassemble(k)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, src)
	}
	return out
}

func sameModule(t *testing.T, what string, want, got *cubin.Module) {
	t.Helper()
	if !reflect.DeepEqual(want.Kernels, got.Kernels) {
		t.Fatalf("%s: a warm memo assembled a different module than a cold one", what)
	}
}

// TestMemoMatchesCold assembles every kernel of the full tune sweep on
// every device, plus the FTF and GEMM kernels, from an empty memo and
// from one that already holds all their lines: name, resources and
// every code word must agree. It also reports how many lines a memo
// holds after each device's sweep.
func TestMemoMatchesCold(t *testing.T) {
	var srcs []string
	seen := map[string]bool{}
	for name, dev := range sweepSources(t, false) {
		s := turingas.NewState()
		lines := 0
		for _, src := range dev {
			if _, err := s.Assemble(src); err != nil {
				t.Fatal(err)
			}
			lines += strings.Count(src, "\n")
			if !seen[src] {
				seen[src] = true
				srcs = append(srcs, src)
			}
		}
		t.Logf("%s: %d kernels, %d source lines, memo holds %d", name, len(dev), lines, s.MemoLen())
	}
	srcs = append(srcs, generatedText(t)...)

	cold, warm := turingas.NewState(), turingas.NewState()
	for _, src := range srcs {
		if _, err := warm.Assemble(src); err != nil {
			t.Fatal(err)
		}
	}
	filled := warm.MemoLen()
	for i, src := range srcs {
		cold.Empty()
		want, err := cold.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := warm.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		sameModule(t, fmt.Sprintf("source %d (%s)", i, want.Kernels[0].Name), want, got)
	}
	if n := warm.MemoLen(); n != filled {
		t.Errorf("second pass grew the memo from %d to %d lines: lines missed it", filled, n)
	}
}

// TestMemoIsolation pins what the memo must not serve: a line whose
// meaning a module's .equ or .alias changes, a line that failed, and a
// branch, whose offset depends on where its label is.
func TestMemoIsolation(t *testing.T) {
	s := turingas.NewState()
	first := func(src string) sass.Inst {
		t.Helper()
		k := assembleOne(t, s, src)
		insts, err := k.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return insts[0]
	}

	t.Run("equ", func(t *testing.T) {
		for _, v := range []uint32{4, 8} {
			src := fmt.Sprintf(".kernel k\n.equ X, %d\n--:-:-:Y:6  IADD3 R1, R1, X, RZ;\n--:-:-:Y:5  EXIT;\n.endkernel\n", v)
			if in := first(src); in.Imm != v {
				t.Errorf(".equ X, %d: IADD3 immediate %d", v, in.Imm)
			}
		}
	})

	t.Run("alias", func(t *testing.T) {
		const line = "--:-:-:Y:6  MOV R1, R2;\n--:-:-:Y:5  EXIT;\n.endkernel\n"
		if in := first(".kernel k\n" + line); in.Rs1 != 2 {
			t.Fatalf("MOV source R%d, want R2", in.Rs1)
		}
		if in := first(".kernel k\n.alias R2, R7\n" + line); in.Rs1 != 7 {
			t.Errorf("after .alias R2, R7: MOV source R%d, want R7", in.Rs1)
		}
	})

	t.Run("failure", func(t *testing.T) {
		const src = ".kernel k\n--:-:-:Y:6  MOV R1, R300;\n--:-:-:Y:5  EXIT;\n.endkernel\n"
		_, err1 := s.Assemble(src)
		_, err2 := s.Assemble(src)
		if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
			t.Errorf("a bad line assembled twice: %v, then %v", err1, err2)
		}
	})

	t.Run("branch", func(t *testing.T) {
		const bra = "--:-:-:Y:5  @P0 BRA loop;\n"
		const nop = "--:-:-:Y:1  NOP;\n"
		for _, gap := range []int{1, 3} {
			src := ".kernel k\nloop:\n" + strings.Repeat(nop, gap) + bra + "--:-:-:Y:5  EXIT;\n.endkernel\n"
			insts, err := assembleOne(t, s, src).Decode()
			if err != nil {
				t.Fatal(err)
			}
			if off := int32(insts[gap].Imm); off != int32(-gap-1) {
				t.Errorf("BRA after %d NOPs: offset %d, want %d", gap, off, -gap-1)
			}
		}
	})
}

func assembleOne(t *testing.T, s *turingas.State, src string) *cubin.Kernel {
	t.Helper()
	mod, err := s.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return &mod.Kernels[0]
}

// TestMemoConcurrent assembles the quick sweep's kernels on 8 workers at
// once through the pooled states; every module must match a cold
// assembly. Run under -race it checks that workers share no memo.
func TestMemoConcurrent(t *testing.T) {
	var srcs []string
	for _, dev := range sweepSources(t, true) {
		srcs = append(srcs, dev...)
	}
	want := make([]*cubin.Module, len(srcs))
	for i, src := range srcs {
		m, err := turingas.NewState().Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	const rounds = 4
	got := make([]*cubin.Module, rounds*len(srcs))
	errs := make([]error, len(got))
	par.For(len(got), 8, func(i int) {
		got[i], errs[i] = turingas.Assemble(srcs[i%len(srcs)])
	})
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameModule(t, "concurrent", want[i%len(srcs)], got[i])
	}
}

// TestAssemblyOutlivesSource assembles the quick sweep's kernels from
// one byte buffer that each next source overwrites, as the kernel
// generator recycles its text buffer, and then overwrites the buffer
// once more. Every kernel must still match a cold assembly: neither a
// kernel's name nor a memo key may point into its source.
func TestAssemblyOutlivesSource(t *testing.T) {
	var srcs []string
	for _, dev := range sweepSources(t, true) {
		srcs = append(srcs, dev...)
	}
	s := turingas.NewState()
	var buf []byte
	got := make([]*cubin.Module, len(srcs))
	for i, src := range srcs {
		buf = append(buf[:0], src...)
		m, err := s.Assemble(unsafe.String(&buf[0], len(buf)))
		if err != nil {
			t.Fatal(err)
		}
		got[i] = m
	}
	for i := range buf {
		buf[i] = 'x'
	}
	for i, src := range srcs {
		want, err := turingas.NewState().Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Kernels, got[i].Kernels) {
			t.Fatalf("source %d: kernel %q changed with the buffer it was assembled from, want %q",
				i, got[i].Kernels[0].Name, want.Kernels[0].Name)
		}
	}
}
