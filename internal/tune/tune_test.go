package tune

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/model"
	"repro/internal/store"
)

func TestEnumerateCanonicalSortedDeduped(t *testing.T) {
	cands := DefaultSpace().Enumerate()
	// bk=64: 3 yields x 3 ldg x 3 sts x 2 p2r x 1 smem (48 KB collapses
	// onto the layout's own) = 54; bk=32 keeps both smem spellings: 108.
	if len(cands) != 162 {
		t.Fatalf("DefaultSpace enumerates %d candidates, want 162", len(cands))
	}
	seen := map[string]bool{}
	prev := ""
	foundDefault := false
	for _, c := range cands {
		k := c.Key()
		if seen[k] {
			t.Fatalf("duplicate candidate %s", k)
		}
		seen[k] = true
		if k <= prev && prev != "" {
			t.Fatalf("candidates not sorted: %s after %s", k, prev)
		}
		prev = k
		if c != c.Canonical() {
			t.Fatalf("candidate %s is not canonical", k)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("candidate %s invalid: %v", k, err)
		}
		if k == kernels.Ours().Key() {
			foundDefault = true
		}
	}
	if !foundDefault {
		t.Fatal("paper default missing from the enumerated space")
	}
}

func TestStaticPruneAnchorsDefaultUnderBudget(t *testing.T) {
	dev := gpu.RTX2070()
	conv5 := kernels.Problem{C: 512, K: 512, N: 32, H: 7, W: 7}
	cands := DefaultSpace().Enumerate()
	var stats PruneStats
	kept := StaticPrune(dev, conv5, cands, 6, &stats)
	if len(kept) != 6 {
		t.Fatalf("budget 6 kept %d candidates", len(kept))
	}
	if kept[0].Key() != kernels.Ours().Key() {
		t.Fatalf("paper default must rank first, got %s", kept[0].Key())
	}
	// Conv5 is DRAM-bound, so after the anchor the roofline heuristic
	// prefers early prefetch (EXPERIMENTS.md note 2): LDG gap 2 first.
	for i, c := range kept[1:] {
		if c.LDGGap != 2 {
			t.Fatalf("DRAM-bound ranking: kept[%d] = %s, want an LDG2 variant", i+1, c.Key())
		}
	}
	if stats.OverBudget == 0 {
		t.Fatal("expected candidates cut by the budget")
	}
	// Determinism: same inputs, same list.
	var stats2 PruneStats
	kept2 := StaticPrune(dev, conv5, cands, 6, &stats2)
	for i := range kept {
		if kept[i] != kept2[i] {
			t.Fatalf("StaticPrune not deterministic at %d: %s vs %s", i, kept[i].Key(), kept2[i].Key())
		}
	}
}

func TestStaticPruneComputeBoundPrefersPaperLDG(t *testing.T) {
	dev := gpu.RTX2070()
	conv2 := kernels.Problem{C: 64, K: 64, N: 32, H: 56, W: 56}
	var stats PruneStats
	kept := StaticPrune(dev, conv2, DefaultSpace().Enumerate(), 4, &stats)
	for i, c := range kept {
		if c.LDGGap != 8 {
			t.Fatalf("compute-bound ranking: kept[%d] = %s, want an LDG8 variant", i, c.Key())
		}
	}
}

// tinyCase is a small valid problem that keeps simulation cheap in tests.
func tinyCase() Case {
	return Case{Tag: "TinyN32", P: kernels.Problem{C: 8, K: 64, N: 32, H: 4, W: 4}}
}

func TestTuneDeterministicAcrossWorkersAndStoreState(t *testing.T) {
	dir := t.TempDir()
	dev := gpu.RTX2070()
	run := func(workers int, st *store.Store) ([]Result, string) {
		tn := &Tuner{Dev: dev, Budget: 4, Workers: workers,
			Warnf: func(format string, args ...any) { t.Errorf("unexpected warning: "+format, args...) }}
		results, _, err := tn.Tune(st, []Case{tinyCase()})
		if err != nil {
			t.Fatal(err)
		}
		return results, Report(dev, results).Format() + SelectionTable(dev, results).Format()
	}
	save := func(st *store.Store, name string) string {
		path := filepath.Join(dir, name)
		if err := st.Save(path); err != nil {
			t.Fatal(err)
		}
		b, _ := os.ReadFile(path)
		return string(b)
	}

	s1 := store.New()
	r1, tab1 := run(1, s1)
	s4 := store.New()
	_, tab4 := run(4, s4)
	if tab1 != tab4 {
		t.Fatalf("tables differ between -jobs 1 and -jobs 4:\n%s\n---\n%s", tab1, tab4)
	}
	b1 := save(s1, "jobs1.json")
	b4 := save(s4, "jobs4.json")
	if b1 != b4 {
		t.Fatal("store files differ between -jobs 1 and -jobs 4")
	}

	// Warm rerun: zero simulations, identical output, unchanged bytes.
	warm, rep := store.Load(filepath.Join(dir, "jobs1.json"))
	if len(rep.Warnings) != 0 || rep.Quarantined != 0 {
		t.Fatalf("unexpected load report: %+v", rep)
	}
	rw, tabw := run(4, warm)
	if rw[0].Simulated != 0 {
		t.Fatalf("warm run simulated %d candidates, want 0", rw[0].Simulated)
	}
	if tabw != tab1 {
		t.Fatal("warm table differs from cold table")
	}
	if bw := save(warm, "warm.json"); bw != b1 {
		t.Fatal("warm store bytes differ from cold store bytes")
	}

	if r1[0].Simulated == 0 {
		t.Fatal("cold run should have simulated its candidates")
	}
	if r1[0].Best.Seconds > r1[0].Default.Seconds {
		t.Fatal("winner slower than the paper default")
	}
}

func TestSelectFallsBackToModelOnColdCache(t *testing.T) {
	dev := gpu.V100()
	conv2 := bench.Layers()[0].Problem(32)
	conv5 := bench.Layers()[3].Problem(32)

	ch := Select(NewCache(), dev, conv2, 4)
	if ch.Source != "model" {
		t.Fatalf("cold cache should fall back to the analytic model, got %q", ch.Source)
	}
	if ch.Algo != AlgoFused {
		t.Fatalf("Conv2 (K=64, below break-even) should pick the fused kernel, got %s", ch.Algo)
	}
	if ch.Config.Key() != kernels.Ours().Key() {
		t.Fatalf("model fallback should carry the paper config, got %s", ch.Config.Key())
	}

	// Conv5's K=512 sits far past the Section 8.1 break-even (~130), so
	// the analytic chooser must fall to the non-fused implementation —
	// the paper's Figure 13 observation 6.
	ch = Select(NewCache(), dev, conv5, 4)
	if ch.Algo != AlgoNonfused {
		t.Fatalf("Conv5 should cross to WINOGRAD_NONFUSED, got %s", ch.Algo)
	}
	if ch.Seconds != ch.NonfusedSeconds {
		t.Fatal("winner seconds must repeat the chosen contender's")
	}
}

func TestSelectPrefersSimulatedFusedEntry(t *testing.T) {
	dev := gpu.RTX2070()
	p := bench.Layers()[0].Problem(32)
	cache := NewCache()
	cfg := kernels.Config{BK: 64, LDGGap: 2, UseP2R: true}.Canonical()
	// A fused measurement faster than every analytic contender.
	gemm := model.Seconds(model.AlgoImplicitPrecompGEMM, shapeOf(p), dev)
	cache.Put(Entry{Device: dev.Name, Problem: p.Key(), Shape: p, Config: cfg,
		ConfigKey: cfg.Key(), Waves: 4, Seconds: gemm / 2})
	ch := Select(cache, dev, p, 4)
	if ch.Source != "simulated" || ch.Algo != AlgoFused {
		t.Fatalf("got source %q algo %s, want simulated FUSED_WINOGRAD", ch.Source, ch.Algo)
	}
	if ch.Config.Key() != cfg.Key() {
		t.Fatalf("choice should carry the winning config, got %s", ch.Config.Key())
	}
}
