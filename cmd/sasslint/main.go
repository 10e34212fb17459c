// sasslint statically verifies SASS kernels against the scheduling
// contract the paper's generator encodes: control-code ranges, stall
// and dependency-barrier hazard coverage, register bank conflicts and
// reuse-flag validity, and resource ceilings (internal/sasscheck). On
// top of the per-instruction rules it runs the whole-block verifier: an
// abstract interpretation of the kernel that derives every warp's
// shared-memory addresses from the instruction stream and proves race
// freedom, bounds safety, barrier convergence, and freedom from
// unexempted bank conflicts on every path. It runs between the
// assembler and the simulator: anything it reports, the simulator's
// dynamic checkers (HazardCheck, SmemOracle) could observe on some
// schedule.
//
// Usage:
//
//	sasslint file.sass ...               lint assembled source files
//	sasslint -gen [-bk 64] [-yield 0] [-ldg 8] [-sts 6] [-mainloop]
//	         [-odd] [-ftf] [-gemm]      lint generated kernel configs
//	sasslint -rules id,id,...            restrict reporting to the named rules
//	sasslint -block N                    block size assumed for file-mode verification
//	sasslint -list                       list the rule catalogue
//
// With -gen and no -ftf/-gemm, the main convolution kernel for the
// given scheduling knobs is generated and linted. -rules takes a
// comma-separated list of rule IDs from -list; unknown IDs are
// rejected. Exit status: 0 clean, 1 diagnostics reported, 2 usage or
// assembly failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cubin"
	"repro/internal/kernels"
	"repro/internal/sasscheck"
	"repro/internal/turingas"
)

// enabled restricts which rules report; nil means every rule.
var enabled map[string]bool

func main() {
	gen := flag.Bool("gen", false, "lint generated kernels instead of source files")
	bk := flag.Int("bk", 64, "filter-dimension cache block (with -gen)")
	yield := flag.Int("yield", 0, "clear yield flag every N float instructions (with -gen)")
	ldg := flag.Int("ldg", 8, "FFMAs between LDGs (with -gen)")
	sts := flag.Int("sts", 6, "float instructions between STSs (with -gen)")
	noP2R := flag.Bool("nop2r", false, "recompute padding predicates instead of P2R/R2P (with -gen)")
	mainloop := flag.Bool("mainloop", false, "main-loop-only variant (with -gen)")
	odd := flag.Bool("odd", false, "odd-H/W problem exercising the edge-guard stores (with -gen)")
	ftf := flag.Bool("ftf", false, "lint the filter-transform kernel (with -gen)")
	gemm := flag.Bool("gemm", false, "lint the batched GEMM kernel (with -gen)")
	rules := flag.String("rules", "", "comma-separated rule IDs to report (default: all; see -list)")
	block := flag.Int("block", 256, "block size assumed when verifying source files")
	list := flag.Bool("list", false, "list the rule catalogue and exit")
	flag.Parse()

	if *list {
		for _, r := range sasscheck.Rules() {
			fmt.Printf("%-18s %s (%s)\n", r.ID, r.Summary, r.Paper)
		}
		return
	}
	if err := parseRules(*rules); err != nil {
		fmt.Fprintln(os.Stderr, "sasslint:", err)
		os.Exit(2)
	}

	total := 0
	if *gen {
		cfg := kernels.Config{BK: *bk, YieldEvery: *yield, LDGGap: *ldg, STSGap: *sts, UseP2R: !*noP2R}
		total += lintGenerated(cfg, *mainloop, *odd, *ftf, *gemm)
	}
	for _, path := range flag.Args() {
		total += lintFile(path, *block)
	}
	if !*gen && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: sasslint [-list] [-rules id,...] [-gen [options]] [-block N] [file.sass ...]")
		os.Exit(2)
	}
	if total > 0 {
		fmt.Printf("%d diagnostics\n", total)
		os.Exit(1)
	}
}

// parseRules validates and installs the -rules filter. A typo must be
// an error, not a filter that silently matches nothing.
func parseRules(spec string) error {
	if spec == "" {
		return nil
	}
	valid := map[string]bool{}
	ids := make([]string, 0, len(sasscheck.Rules()))
	for _, r := range sasscheck.Rules() {
		valid[r.ID] = true
		ids = append(ids, r.ID)
	}
	enabled = map[string]bool{}
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if !valid[id] {
			return fmt.Errorf("unknown rule %q; valid rules: %s", id, strings.Join(ids, ", "))
		}
		enabled[id] = true
	}
	if len(enabled) == 0 {
		enabled = nil
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sasslint:", err)
	os.Exit(2)
}

func report(name string, ds []sasscheck.Diag) int {
	n := 0
	for _, d := range ds {
		if enabled != nil && !enabled[d.Rule] {
			continue
		}
		fmt.Printf("%s: %s\n", name, d)
		n++
	}
	return n
}

// lintKernel checks one kernel with the per-instruction rules and the
// whole-block verifier at the given block size, and reports the
// findings under name.
func lintKernel(name string, k *cubin.Kernel, threads int) int {
	ds, err := sasscheck.CheckKernel(k)
	if err != nil {
		fatal(err)
	}
	vds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: threads})
	if err != nil {
		fatal(err)
	}
	return report(name, append(ds, vds...))
}

// lintFile assembles one .sass source file and lints every kernel in
// the resulting module at the given block size.
func lintFile(path string, block int) int {
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	mod, err := turingas.Assemble(string(src))
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	n := 0
	for i := range mod.Kernels {
		k := &mod.Kernels[i]
		n += lintKernel(fmt.Sprintf("%s:%s", path, k.Name), k, block)
	}
	return n
}

// lintGenerated generates the requested kernels and lints each one.
func lintGenerated(cfg kernels.Config, mainloop, odd, ftf, gemm bool) int {
	n := 0
	if ftf {
		for _, k := range []int{32, 64, 256} {
			kern, err := kernels.GenerateFTF(k)
			if err != nil {
				fatal(err)
			}
			n += lintKernel(fmt.Sprintf("ftf(k=%d)", k), kern, kernels.FTFBlock(k))
		}
	}
	if gemm {
		k, err := kernels.GenerateBatchedGEMM(cfg, kernels.GemmProblem{M: 128, N: 128, K: 64, Batch: 16})
		if err != nil {
			fatal(err)
		}
		n += lintKernel("gemm", k, 256)
	}
	if ftf || gemm {
		return n
	}

	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	if odd {
		p.H, p.W = 7, 7
	}
	k, err := kernels.Generate(cfg, p, mainloop)
	if err != nil {
		fatal(err)
	}
	name := fmt.Sprintf("conv(bk=%d,yield=%d,ldg=%d,sts=%d,p2r=%v,mainloop=%v,odd=%v)",
		cfg.BK, cfg.YieldEvery, cfg.LDGGap, cfg.STSGap, cfg.UseP2R, mainloop, odd)
	return n + lintKernel(name, k, 256)
}
