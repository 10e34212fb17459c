package turingas_test

import (
	"runtime"
	"testing"

	"repro/internal/kernels"
	"repro/internal/turingas"
)

func perfSource(tb testing.TB) string {
	tb.Helper()
	src, err := kernels.Source(kernels.Ours(), kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}, false)
	if err != nil {
		tb.Fatal(err)
	}
	return src
}

// TestAssembleAllocsPinned pins assembling the perf suite's kernel
// (BENCH_sim.json's turingas/assemble row) from an empty memo at 8
// allocs/op: the module and its kernel list, the kernel's state, name
// and labels, one code buffer sized by the line count, and the memo's
// key chunk. Parsing a line allocates nothing, and neither does storing
// it once the memo's map has grown. From a memo that holds every line,
// as in the row, no key chunk is needed: 7. The budgets may only
// tighten.
func TestAssembleAllocsPinned(t *testing.T) {
	src := perfSource(t)
	s := turingas.NewState()
	for _, c := range []struct {
		name     string
		budget   float64
		assemble func()
	}{
		{"cold", 8, func() { s.Empty(); mustAssemble(t, s, src) }},
		{"warm", 7, func() { mustAssemble(t, s, src) }},
	} {
		if n := testing.AllocsPerRun(20, c.assemble); n > c.budget {
			t.Errorf("%s AssembleKernel: %v allocs/op, want <= %v", c.name, n, c.budget)
		}
	}
}

// TestAssembleBytesPinned pins the bytes a fresh assembler state
// allocates to assemble the perf suite's kernel: the memo sized for
// that kernel's lines, not for the memo's bound, plus the kernel's code
// and the key chunk. A cold tune worker pays this once; reserving the
// bound cost 723 KiB. The budget may only tighten.
func TestAssembleBytesPinned(t *testing.T) {
	src := perfSource(t)
	mustAssemble(t, turingas.NewState(), src) // warm everything but the state
	const runs, budget = 8, 300 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mustAssemble(t, turingas.NewState(), src)
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > budget {
		t.Errorf("fresh state AssembleKernel: %d bytes/op, want <= %d", n, budget)
	}
}

func mustAssemble(tb testing.TB, s *turingas.State, src string) {
	tb.Helper()
	if _, err := s.Assemble(src); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkAssembleCold assembles the perf suite's kernel from an empty
// memo: every distinct line is parsed, encoded and stored. The
// turingas/assemble row assembles the same source repeatedly and so
// measures memo hits.
func BenchmarkAssembleCold(b *testing.B) {
	src := perfSource(b)
	s := turingas.NewState()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Empty()
		mustAssemble(b, s, src)
	}
}
