package turingas_test

import (
	"testing"

	"repro/internal/kernels"
	"repro/internal/turingas"
)

// TestAssembleAllocsPinned pins assembling the perf suite's kernel
// (BENCH_sim.json's turingas/assemble row) at 13 allocs/op: the module
// and its kernel list, the open kernel's labels and branch list, and one
// code buffer sized by the line count. Parsing a line allocates nothing.
// The budget may only tighten.
func TestAssembleAllocsPinned(t *testing.T) {
	src, err := kernels.Source(kernels.Ours(), kernels.Problem{C: 64, K: 64, N: 32, H: 8, W: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	assemble := func() {
		if _, err := turingas.AssembleKernel(src); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, assemble); n > 13 {
		t.Errorf("AssembleKernel: %v allocs/op, want <= 13", n)
	}
}
