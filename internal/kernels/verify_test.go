package kernels_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cubin"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sass"
	"repro/internal/sasscheck"
)

// TestGeneratedKernelsVerifyClean is the verify-clean lattice: every
// experiment variant, both full and main-loop-only, on even and odd
// problems, plus the FTF kernels and the batched GEMM, must prove free
// of shared-memory races, out-of-bounds accesses, and divergent
// barriers — with zero absint-limit escapes, i.e. the verifier resolves
// every address and branch the generator emits. In -short mode only the
// two flagship blockings run.
func TestGeneratedKernelsVerifyClean(t *testing.T) {
	even := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	odd := kernels.Problem{C: 16, K: 64, N: 32, H: 7, W: 7}
	variants := lintVariants()
	if testing.Short() {
		variants = variants[:2] // ours, cudnn-like
	}
	for _, v := range variants {
		for _, mlo := range []bool{false, true} {
			for _, p := range []kernels.Problem{even, odd} {
				name := fmt.Sprintf("%s/mlo=%v/H%d", v.name, mlo, p.H)
				t.Run(name, func(t *testing.T) {
					k, err := kernels.Generate(v.cfg, p, mlo)
					if err != nil {
						t.Fatal(err)
					}
					ds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: 256})
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
			ds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: kernels.FTFBlock(kk)})
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
		ds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: 256})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			t.Errorf("%s", d)
		}
	})
}

// TestScatterExemptionStillNeeded proves the verifier's single
// exemption is load-bearing and precisely scoped: with exemptions
// stripped, the epilogue scatter's derived bank conflicts must
// resurface — and only on instructions the exemption's matcher covers.
// If this test fails with zero diagnostics, the scatter became
// conflict-free: delete the exemption and the DESIGN.md deviation note.
func TestScatterExemptionStillNeeded(t *testing.T) {
	exs := sasscheck.Exemptions()
	if len(exs) != 1 || exs[0].ID != "epilogue-scatter-conflicts" {
		t.Fatalf("exemption surface changed (%d entries); update this test deliberately", len(exs))
	}
	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		k, err := kernels.Generate(cfg, p, false)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := k.Decode()
		if err != nil {
			t.Fatal(err)
		}
		opts := sasscheck.VerifyOpts{Threads: 256}

		// With the exemption active: completely clean.
		ds, err := sasscheck.VerifyKernel(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			t.Errorf("bk%d with exemptions: %s", cfg.BK, d)
		}

		// Stripped: the scatter conflicts must appear, all of them on
		// instructions the exemption's matcher covers.
		opts.NoExemptions = true
		stripped, err := sasscheck.VerifyKernel(k, opts)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range stripped {
			if d.Rule != "smem-conflict" {
				t.Errorf("bk%d stripped: unexpected %s", cfg.BK, d)
				continue
			}
			n++
			if d.PC < 0 || d.PC >= len(insts) || !exs[0].Match(&insts[d.PC]) {
				t.Errorf("bk%d: conflict at pc %d is outside the exemption's matcher: %s", cfg.BK, d.PC, d)
			}
		}
		if n == 0 {
			t.Errorf("bk%d: scatter verifies conflict-free; drop the exemption and the DESIGN.md deviation", cfg.BK)
		}
	}
}

// TestSmemLayoutsConflictFree proves the Figure-3 fragment layout and
// the Figure-5 padded transpose bank-clean for both blockings, with the
// verifier's exemptions stripped: the main-loop-only kernel derives no
// bank conflict at all, and the full kernel's conflicts all sit in the
// epilogue (past the main loop's last pc) on stores — the scatter, the
// documented DESIGN.md deviation, asserted present so the exemption
// stays honest — while the epilogue's gathers stay conflict-free.
func TestSmemLayoutsConflictFree(t *testing.T) {
	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	opts := sasscheck.VerifyOpts{Threads: 256, NoExemptions: true}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		mlo, err := kernels.Generate(cfg, p, true)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sasscheck.VerifyKernel(mlo, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			t.Errorf("bk%d main loop: %s", cfg.BK, d)
		}
		loop, err := mlo.Decode()
		if err != nil {
			t.Fatal(err)
		}
		// The main-loop-only kernel is the full kernel's prefix up to
		// the epilogue, which it replaces with a single EXIT.
		epilogue := len(loop) - 1

		full, err := kernels.Generate(cfg, p, false)
		if err != nil {
			t.Fatal(err)
		}
		insts, err := full.Decode()
		if err != nil {
			t.Fatal(err)
		}
		for pc := 0; pc < epilogue; pc++ {
			if insts[pc] != loop[pc] {
				t.Fatalf("bk%d: full kernel diverges from the main loop at pc %d", cfg.BK, pc)
			}
		}
		ds, err = sasscheck.VerifyKernel(full, opts)
		if err != nil {
			t.Fatal(err)
		}
		stores := 0
		for _, d := range ds {
			switch {
			case d.Rule != "smem-conflict":
				t.Errorf("bk%d full kernel: unexpected %s", cfg.BK, d)
			case d.PC < epilogue:
				t.Errorf("bk%d: bank conflict inside the main loop: %s", cfg.BK, d)
			case insts[d.PC].Op != sass.OpSTS:
				t.Errorf("bk%d: epilogue gather conflicts: %s", cfg.BK, d)
			default:
				stores++
			}
		}
		if stores == 0 {
			t.Errorf("bk%d: scatter stores verify conflict-free; drop the exemption and the DESIGN.md deviation", cfg.BK)
		}
	}
}

// TestUnpaddedTransposeConflicts is the negative control for the
// Figure-5 rule: reading a column of the round buffer without the +1
// row padding serializes all 32 lanes on one bank, and both the bank
// model and the verifier must say so. The padded version of the same
// read is clean.
func TestUnpaddedTransposeConflicts(t *testing.T) {
	column := func(rowWords uint32) []sass.Inst {
		mk := func(op sass.Opcode, f func(*sass.Inst)) sass.Inst {
			in := sass.Inst{Op: op, Pred: sass.PT, Rd: sass.RZ, Rs0: sass.RZ, Rs1: sass.RZ, Rs2: sass.RZ,
				Pd: sass.PT, SrcPred: sass.PT, Width: sass.W32, Ctrl: sass.DefaultCtrl()}
			if f != nil {
				f(&in)
			}
			return in
		}
		return []sass.Inst{
			mk(sass.OpS2R, func(in *sass.Inst) { in.Rd = 0; in.Imm = sass.SRTidX }),
			mk(sass.OpIMAD, func(in *sass.Inst) { in.Rd = 1; in.Rs0 = 0; in.SrcMode = sass.SrcImm; in.Imm = rowWords * 4 }),
			mk(sass.OpLDS, func(in *sass.Inst) { in.Rd = 2; in.Rs0 = 1 }),
			mk(sass.OpEXIT, nil),
		}
	}
	cost := func(rowWords uint32) int {
		var addrs [32]uint32
		var active [32]bool
		for l := range addrs {
			addrs[l] = uint32(l) * rowWords * 4
			active[l] = true
		}
		_, conflict := gpu.SmemAccessCost(sass.W32, &addrs, &active)
		return conflict
	}
	verify := func(insts []sass.Inst) []sasscheck.Diag {
		ds, err := sasscheck.VerifyKernel(&cubin.Kernel{Name: "column", SmemBytes: 8192, Code: sass.EncodeAll(insts)}, sasscheck.VerifyOpts{Threads: 32})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	if c := cost(32); c != 31 {
		t.Errorf("unpadded column read: %d conflict cycles, want 31", c)
	}
	ds := verify(column(32))
	if len(ds) != 1 || ds[0].Rule != "smem-conflict" || ds[0].PC != 2 {
		t.Errorf("unpadded column read not flagged: %v", ds)
	}
	if c := cost(33); c != 0 {
		t.Errorf("padded column read: %d conflict cycles, want 0", c)
	}
	if ds := verify(column(33)); len(ds) != 0 {
		t.Errorf("padded column read flagged: %v", ds)
	}
}

// TestGeneratedKernelsOracleClean runs the flagship kernels end to end
// with the dynamic shared-memory oracle attached: the concrete launches
// (FTF + main kernel, full grid) must produce zero race, bounds, or
// divergence findings — the dynamic half of the differential argument
// whose static half is TestGeneratedKernelsVerifyClean.
//
// It also holds the static bank-conflict rule to what the simulator
// ran: the logged lane accesses are regrouped into executed warp
// accesses, priced with the same bank model, and every pc that paid
// conflict cycles must carry an smem-conflict diagnostic from the
// verifier with its exemptions stripped (dynamic ⊆ static).
func TestGeneratedKernelsOracleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates full kernels")
	}
	p := kernels.Problem{C: 16, K: 64, N: 32, H: 4, W: 4}
	for _, cfg := range []kernels.Config{kernels.Ours(), kernels.CuDNNLike()} {
		oracle := &gpu.SmemOracle{}
		if _, err := kernels.RunConvWith(gpu.RTX2070(), cfg, p, kernels.ConvOpts{Oracle: oracle}); err != nil {
			t.Fatalf("bk%d: %v", cfg.BK, err)
		}
		if fs := oracle.Findings(); len(fs) != 0 {
			for i, f := range fs {
				if i >= 5 {
					t.Errorf("bk%d: ... and %d more findings", cfg.BK, len(fs)-5)
					break
				}
				t.Errorf("bk%d: %s", cfg.BK, f)
			}
		}
		recs := oracle.Records()
		if len(recs) == 0 {
			t.Fatalf("bk%d: oracle logged nothing; the hooks are dead", cfg.BK)
		}

		dynamic := dynamicConflictPCs(recs)
		if len(dynamic) == 0 {
			t.Fatalf("bk%d: no executed access paid conflict cycles; the epilogue scatter should", cfg.BK)
		}
		k, err := kernels.Generate(cfg, p, false)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sasscheck.VerifyKernel(k, sasscheck.VerifyOpts{Threads: 256, NoExemptions: true})
		if err != nil {
			t.Fatal(err)
		}
		static := map[int]bool{}
		for _, d := range ds {
			if d.Rule == "smem-conflict" {
				static[d.PC] = true
			}
		}
		var missed []int
		for _, pc := range dynamic {
			if !static[pc] {
				missed = append(missed, pc)
			}
		}
		if len(missed) > 0 {
			t.Errorf("bk%d: %d pcs paid bank conflicts in simulation but carry no smem-conflict diagnostic, first %v",
				cfg.BK, len(missed), missed[:min(len(missed), 5)])
		}
	}
}

// dynamicConflictPCs regroups the oracle's per-lane log into executed
// warp accesses — one per (block, phase, warp, pc, n-th execution of
// the lane) — prices each with gpu.SmemAccessCost, and returns the
// sorted pcs of the accesses that paid conflict cycles.
func dynamicConflictPCs(recs []gpu.OracleRecord) []int {
	type key struct{ block, phase, warp, pc, n int }
	type access struct {
		width  sass.MemWidth
		addrs  [32]uint32
		active [32]bool
	}
	type lane struct{ block, phase, warp, pc, lane int }
	execs := map[lane]int{}
	accs := map[key]*access{}
	for _, r := range recs {
		l := lane{r.Block, r.Phase, r.Warp, r.PC, r.Lane}
		k := key{r.Block, r.Phase, r.Warp, r.PC, execs[l]}
		execs[l]++
		a := accs[k]
		if a == nil {
			a = &access{width: sass.MemWidth(r.Width)}
			accs[k] = a
		}
		a.addrs[r.Lane] = r.Addr
		a.active[r.Lane] = true
	}
	seen := map[int]bool{}
	var pcs []int
	for k, a := range accs {
		if _, conflict := gpu.SmemAccessCost(a.width, &a.addrs, &a.active); conflict > 0 && !seen[k.pc] {
			seen[k.pc] = true
			pcs = append(pcs, k.pc)
		}
	}
	sort.Ints(pcs)
	return pcs
}
