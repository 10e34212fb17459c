package kernels_test

import (
	"fmt"
	"testing"

	"repro/internal/kernels"
	"repro/internal/sasscheck"
)

// lintVariants enumerates every kernel configuration the experiment
// sweeps launch (EXPERIMENTS.md: fig6/7/8/9, tables 5-7, the ablation),
// so the structure tests prove each one assembles to a hazard-free,
// conflict-free instruction stream before any simulation runs.
func lintVariants() []struct {
	name string
	cfg  kernels.Config
} {
	mk := func(mut func(*kernels.Config)) kernels.Config {
		c := kernels.Ours()
		mut(&c)
		return c
	}
	return []struct {
		name string
		cfg  kernels.Config
	}{
		{"ours", kernels.Ours()},
		{"cudnn-like", kernels.CuDNNLike()},
		{"yield7", mk(func(c *kernels.Config) { c.YieldEvery = 7 })},
		{"yield8", mk(func(c *kernels.Config) { c.YieldEvery = 8 })},
		{"ldg2", mk(func(c *kernels.Config) { c.LDGGap = 2 })},
		{"ldg4", mk(func(c *kernels.Config) { c.LDGGap = 4 })},
		{"sts2", mk(func(c *kernels.Config) { c.STSGap = 2 })},
		{"sts4", mk(func(c *kernels.Config) { c.STSGap = 4 })},
		{"no-p2r", mk(func(c *kernels.Config) { c.UseP2R = false })},
		{"bk32-all-else-ours", mk(func(c *kernels.Config) { c.BK = 32 })},
	}
}

// TestGeneratedKernelsLintClean runs the static verifier over every
// experiment variant, both full and main-loop-only, plus the odd-H/W
// edge-guard path, the FTF kernels, and the batched GEMM: zero
// diagnostics allowed. This is the lint gate the CI sweep job re-runs
// via cmd/sasslint.
func TestGeneratedKernelsLintClean(t *testing.T) {
	even := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	odd := kernels.Problem{C: 16, K: 64, N: 32, H: 7, W: 7}
	for _, v := range lintVariants() {
		for _, mlo := range []bool{false, true} {
			for _, p := range []kernels.Problem{even, odd} {
				name := fmt.Sprintf("%s/mlo=%v/H%d", v.name, mlo, p.H)
				t.Run(name, func(t *testing.T) {
					k, err := kernels.Generate(v.cfg, p, mlo)
					if err != nil {
						t.Fatal(err)
					}
					ds, err := sasscheck.CheckKernel(k)
					if err != nil {
						t.Fatal(err)
					}
					for _, d := range ds {
						t.Errorf("%s", d)
					}
				})
			}
		}
	}
	for _, kk := range []int{32, 64, 256} {
		t.Run(fmt.Sprintf("ftf%d", kk), func(t *testing.T) {
			k, err := kernels.GenerateFTF(kk)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := sasscheck.CheckKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range ds {
				t.Errorf("%s", d)
			}
		})
	}
	t.Run("gemm", func(t *testing.T) {
		k, err := kernels.GenerateBatchedGEMM(kernels.Ours(), kernels.GemmProblem{M: 128, N: 128, K: 64, Batch: 16})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sasscheck.CheckKernel(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			t.Errorf("%s", d)
		}
	})
}
