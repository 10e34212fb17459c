package kernels

import (
	"strings"
	"sync"
	"testing"
)

// TestConfigKeyDistinct builds a grid over every knob and checks that any
// two configurations that differ after normalization get distinct keys.
func TestConfigKeyDistinct(t *testing.T) {
	var cfgs []Config
	for _, bk := range []int{32, 64} {
		for _, yield := range []int{0, 7, 8} {
			for _, ldg := range []int{2, 4, 8} {
				for _, sts := range []int{2, 6} {
					for _, p2r := range []bool{false, true} {
						for _, smem := range []int{0, 48 * 1024} {
							cfgs = append(cfgs, Config{BK: bk, YieldEvery: yield,
								LDGGap: ldg, STSGap: sts, UseP2R: p2r, DeclaredSmem: smem})
						}
					}
				}
			}
		}
	}
	seen := map[string]Config{}
	uniq := map[Config]bool{}
	for _, c := range cfgs {
		k := c.Key()
		if prev, ok := seen[k]; ok && prev.withDefaults() != c.withDefaults() {
			t.Fatalf("distinct configs collide on key %q:\n%+v\n%+v", k, prev, c)
		}
		seen[k] = c
		uniq[c.withDefaults()] = true
	}
	// Canonically distinct configs must all get their own key; spellings
	// that canonicalize together (bk=64 with DeclaredSmem at the layout's
	// own 48 KB) are supposed to share one.
	if len(seen) != len(uniq) {
		t.Fatalf("grid of %d canonical configs produced %d keys", len(uniq), len(seen))
	}
}

// TestConfigKeyRoundTripsEveryKnob flips each knob one at a time from the
// paper's configuration and requires the key to change — no knob may be
// dropped from the key (the failure mode of the old %+v-format cache key).
func TestConfigKeyRoundTripsEveryKnob(t *testing.T) {
	base := Ours()
	mutations := map[string]func(*Config){
		"BK":         func(c *Config) { c.BK = 32 },
		"YieldEvery": func(c *Config) { c.YieldEvery = 7 },
		"LDGGap":     func(c *Config) { c.LDGGap = 2 },
		"STSGap":     func(c *Config) { c.STSGap = 2 },
		"UseP2R":     func(c *Config) { c.UseP2R = !c.UseP2R },
	}
	for knob, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Key() == base.Key() {
			t.Errorf("changing %s does not change the key %q", knob, base.Key())
		}
	}
	// DeclaredSmem only changes the emitted kernel when it exceeds the
	// layout's actual requirement (48 KB for bk=64, 32 KB for bk=32), so
	// its round-trip is checked on the bk=32 layout, where headroom
	// exists; on bk=64 a 48 KB declaration IS the layout's own and must
	// canonicalize away instead.
	a := Config{BK: 32, UseP2R: true}
	b := a
	b.DeclaredSmem = 48 * 1024
	if a.Key() == b.Key() {
		t.Errorf("changing DeclaredSmem on bk=32 does not change the key %q", a.Key())
	}
	c := base
	c.DeclaredSmem = 48 * 1024
	if c.Key() != base.Key() {
		t.Errorf("bk=64 DeclaredSmem at the layout's own 48 KB must share the default key: %q vs %q",
			c.Key(), base.Key())
	}
}

// TestYieldZeroIsNatural pins the zero-means-Natural contract: YieldEvery
// is deliberately not defaulted in withDefaults, so an unset knob and an
// explicit 0 are one configuration by construction, and neither can ever
// collide with a real clearing interval.
func TestYieldZeroIsNatural(t *testing.T) {
	unset := Config{BK: 64, LDGGap: 8, STSGap: 6, UseP2R: true}
	natural := Ours() // spells YieldEvery: 0 explicitly
	if unset.Key() != natural.Key() {
		t.Fatalf("unset YieldEvery and explicit 0 must share a key:\n%q\n%q", unset.Key(), natural.Key())
	}
	every7 := natural
	every7.YieldEvery = 7
	if every7.Key() == natural.Key() {
		t.Fatalf("YieldEvery 7 collides with Natural on key %q", natural.Key())
	}
}

// TestConfigKeyCanonical checks that default-equivalent spellings share a
// key: a zero knob and its explicit default are the same kernel.
func TestConfigKeyCanonical(t *testing.T) {
	zero := Config{BK: 64, UseP2R: true}
	explicit := Config{BK: 64, YieldEvery: 0, LDGGap: 8, STSGap: 6, UseP2R: true}
	if zero.Key() != explicit.Key() {
		t.Fatalf("equivalent configs get different keys:\n%q\n%q", zero.Key(), explicit.Key())
	}
	for _, want := range []string{"bk64", "yield0", "ldg8", "sts6", "p2rtrue", "smem0"} {
		if !strings.Contains(zero.Key(), want) {
			t.Errorf("key %q missing field %q", zero.Key(), want)
		}
	}
}

// TestValidateRejections exercises every Validate rule with a knob value
// it must reject, plus the known-good configurations it must accept.
func TestValidateRejections(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Config)
	}{
		{"BK outside {32,64}", func(c *Config) { c.BK = 48 }},
		{"negative BK", func(c *Config) { c.BK = -64 }},
		{"negative YieldEvery", func(c *Config) { c.YieldEvery = -1 }},
		{"oversized YieldEvery", func(c *Config) { c.YieldEvery = 33 }},
		{"negative LDGGap", func(c *Config) { c.LDGGap = -2 }},
		{"non-power-of-two LDGGap", func(c *Config) { c.LDGGap = 3 }},
		{"oversized LDGGap", func(c *Config) { c.LDGGap = 64 }},
		{"negative STSGap", func(c *Config) { c.STSGap = -1 }},
		{"oversized STSGap", func(c *Config) { c.STSGap = 17 }},
		{"negative DeclaredSmem", func(c *Config) { c.DeclaredSmem = -1 }},
		{"DeclaredSmem above 48KB", func(c *Config) { c.DeclaredSmem = MaxDeclaredSmem + 1 }},
	}
	for _, tc := range bad {
		c := Ours()
		tc.mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, c)
		}
	}
	good := []Config{{}, Ours(), CuDNNLike(),
		{BK: 32, YieldEvery: 32, LDGGap: 1, STSGap: 16, DeclaredSmem: MaxDeclaredSmem}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate rejected the valid config %+v: %v", c, err)
		}
	}
}

// TestConfigKeySourceAgreement sweeps a lattice over every knob and checks
// the cache-key contract both ways against the generator itself: two
// configs share a key exactly when they emit byte-identical SASS. A key
// collision across different kernels would silently reuse the wrong
// simulation; distinct keys for one kernel would duplicate work the
// tuner's cache exists to avoid.
func TestConfigKeySourceAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("generates ~100 kernel sources")
	}
	p := Problem{C: 8, K: 64, N: 32, H: 4, W: 4}
	var cfgs []Config
	for _, bk := range []int{32, 64} {
		for _, yield := range []int{0, 7} {
			for _, ldg := range []int{2, 8} {
				for _, sts := range []int{2, 6} {
					for _, p2r := range []bool{false, true} {
						for _, smem := range []int{0, 33 * 1024, 48 * 1024} {
							cfgs = append(cfgs, Config{BK: bk, YieldEvery: yield,
								LDGGap: ldg, STSGap: sts, UseP2R: p2r, DeclaredSmem: smem})
						}
					}
				}
			}
		}
	}
	keyToSrc := map[string]string{}
	srcToKey := map[string]string{}
	for _, c := range cfgs {
		src, err := Source(c, p, true)
		if err != nil {
			t.Fatalf("Source(%+v): %v", c, err)
		}
		k := c.Key()
		if prev, ok := keyToSrc[k]; ok {
			if prev != src {
				t.Fatalf("key %q maps to two different kernels (config %+v)", k, c)
			}
		} else {
			keyToSrc[k] = src
		}
		if prev, ok := srcToKey[src]; ok {
			if prev != k {
				t.Fatalf("one kernel has two keys %q and %q (config %+v)", prev, k, c)
			}
		} else {
			srcToKey[src] = k
		}
	}
	if len(keyToSrc) != len(srcToKey) {
		t.Fatalf("%d keys for %d distinct kernels", len(keyToSrc), len(srcToKey))
	}
}

func TestProblemKey(t *testing.T) {
	a := Problem{C: 64, K: 64, N: 32, H: 56, W: 56}
	b := a
	b.W = 28
	if a.Key() == b.Key() {
		t.Fatalf("distinct problems share key %q", a.Key())
	}
	if a.Key() != (Problem{C: 64, K: 64, N: 32, H: 56, W: 56}).Key() {
		t.Fatal("identical problems must share a key")
	}
}

// TestGenerateCached checks the generation cache: repeated and concurrent
// Generate calls for one kernel return the identical assembled object and
// the generator runs once per distinct key.
func TestGenerateCached(t *testing.T) {
	cfg := Ours()
	p := Problem{C: 8, K: 64, N: 32, H: 4, W: 4}
	before := len(genCache.ComputeCounts())
	k1, err := Generate(cfg, p, false)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	kernels := make([]interface{}, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, err := Generate(cfg, p, false)
			if err != nil {
				t.Error(err)
				return
			}
			kernels[i] = k
		}(i)
	}
	wg.Wait()
	for i, k := range kernels {
		if k != interface{}(k1) {
			t.Fatalf("goroutine %d got a different kernel object", i)
		}
	}
	// The first call may or may not have been the one to populate the
	// cache (earlier tests share the process-wide cache), but this key must
	// have been generated at most once since `before`.
	if n := len(genCache.ComputeCounts()) - before; n > 1 {
		t.Fatalf("kernel generated %d times for one key", n)
	}

	// A different key generates a fresh kernel.
	k2, err := Generate(cfg, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Fatal("mainLoopOnly variant must not share the full kernel's cache entry")
	}
}

func TestGenerateFTFCached(t *testing.T) {
	k1, err := GenerateFTF(64)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateFTF(64)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("GenerateFTF must return the cached kernel for one K")
	}
	k3, err := GenerateFTF(128)
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("different K must not share an FTF cache entry")
	}
}

// TestFootprintAllocFree pins Config.Footprint, which static pruning
// calls for every candidate of every case, at zero allocations: both
// layouts are package-level values, not rebuilt per call.
func TestFootprintAllocFree(t *testing.T) {
	for _, c := range []struct {
		cfg        Config
		regs, smem int
	}{
		{Config{BK: 64}, 253, 48 << 10},
		{Config{BK: 32}, 126, 32 << 10},
		{Config{BK: 32, DeclaredSmem: 64 << 10}, 126, 64 << 10},
	} {
		if regs, smem := c.cfg.Footprint(); regs != c.regs || smem != c.smem {
			t.Errorf("%+v: Footprint = %d regs, %d B smem, want %d, %d", c.cfg, regs, smem, c.regs, c.smem)
		}
		if n := testing.AllocsPerRun(20, func() { c.cfg.Footprint() }); n != 0 {
			t.Errorf("%+v: Footprint makes %v allocs/op, want 0", c.cfg, n)
		}
	}
}
