package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/store"
)

func TestParseShard(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shard
		ok   bool
	}{
		{"", Shard{}, true},
		{"1/1", Shard{1, 1}, true},
		{"2/3", Shard{2, 3}, true},
		{"3/3", Shard{3, 3}, true},
		{"0/3", Shard{}, false},
		{"4/3", Shard{}, false},
		{"x/3", Shard{}, false},
		{"2", Shard{}, false},
		{"-1/3", Shard{}, false},
		{"1/2x", Shard{}, false},
		{"1/2/3", Shard{}, false},
		{"1/ 2", Shard{}, false},
		{" 1/2", Shard{}, false},
	} {
		got, err := ParseShard(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v, ok=%t", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

func TestShardsPartitionTheKeySpace(t *testing.T) {
	// Every key is owned by exactly one shard of N, for every N in the
	// CI range — the disjoint-cover property merge correctness rests on.
	keys := make([]store.Key, 0, 40)
	for i := 0; i < 40; i++ {
		keys = append(keys, store.Key{Device: "d", DeviceHash: "h", Problem: "p",
			Mode: "tune/waves=4", KernelHash: fmt.Sprintf("k%d", i)})
	}
	for n := 1; n <= 4; n++ {
		for _, k := range keys {
			owners := 0
			for i := 1; i <= n; i++ {
				if (Shard{Index: i, Count: n}).Owns(k) {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("key %s owned by %d shards of %d", k, owners, n)
			}
		}
	}
}

// TestShardedTuneMergesToSingleProcessBytes is the shard-determinism
// contract: splitting the quick lattice over 1-, 2-, 3- and 4-way shard
// runs and merging the partial stores yields bytes identical to the
// single-process store, for every split.
func TestShardedTuneMergesToSingleProcessBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the tiny lattice several times")
	}
	dir := t.TempDir()
	dev := gpu.RTX2070()
	cases := []Case{tinyCase()}

	runShard := func(i, n int) *store.Store {
		st := store.New()
		tn := &Tuner{Dev: dev, Budget: 4, Workers: 2, Shard: Shard{Index: i, Count: n}}
		results, _, err := tn.Tune(st, cases)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if n > 1 {
			for _, r := range results {
				if len(r.Candidates) != 0 {
					t.Fatalf("shard %d/%d returned rendered candidates", i, n)
				}
			}
		}
		return st
	}

	single := runShard(1, 1)
	singlePath := filepath.Join(dir, "single.json")
	if err := single.Save(singlePath); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(singlePath)
	if single.Len() == 0 {
		t.Fatal("single-process store is empty")
	}

	for n := 2; n <= 4; n++ {
		merged := store.New()
		total := 0
		for i := 1; i <= n; i++ {
			sh := runShard(i, n)
			total += sh.Len()
			if err := merged.Merge(sh, "merged", fmt.Sprintf("shard%d/%d", i, n)); err != nil {
				t.Fatalf("merging shard %d/%d: %v", i, n, err)
			}
		}
		if total != single.Len() {
			t.Fatalf("%d-way shards hold %d entries total, single run holds %d (overlap or gap)",
				n, total, single.Len())
		}
		path := filepath.Join(dir, fmt.Sprintf("merged%d.json", n))
		if err := merged.Save(path); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(path)
		if string(got) != string(want) {
			t.Fatalf("%d-way merged store bytes differ from the single-process store", n)
		}
	}
}

// TestEntryFromStoreValidation pins the two checks of a stored
// payload: the tuner's hit check (EntryForKey) ties it to every input
// its key was derived from, without regenerating the kernel; the full
// check (EntryFromStore), for entries the reader did not key, also
// re-derives the kernel-source and device-spec hashes.
func TestEntryFromStoreValidation(t *testing.T) {
	dev := gpu.RTX2070()
	p := tinyCase().P
	cfg := kernels.Ours().Canonical()
	e := Entry{Device: dev.Name, Problem: p.Key(), Shape: p, Config: cfg,
		ConfigKey: cfg.Key(), Waves: 4, Seconds: 1.5}
	key, err := StoreKey(dev, p, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	if err := st.Put(key, e); err != nil {
		t.Fatal(err)
	}
	se, _ := st.Get(key)

	if _, err := EntryForKey(se, dev.Name, p, 4, cfg); err != nil {
		t.Fatalf("hit check rejected a clean entry: %v", err)
	}
	if _, err := EntryFromStore(se); err != nil {
		t.Fatalf("full check rejected a clean entry: %v", err)
	}

	// The hit check rejects a payload that differs from the looked-up
	// inputs in any one of them.
	other := cfg
	other.LDGGap++
	otherP := p
	otherP.N *= 2
	for _, c := range []struct {
		name   string
		poison func(*Entry)
	}{
		{"device", func(e *Entry) { e.Device = "v100" }},
		{"shape", func(e *Entry) { e.Shape = otherP }},
		{"problem", func(e *Entry) { e.Problem = otherP.Key() }},
		{"waves", func(e *Entry) { e.Waves = 8 }},
		{"config", func(e *Entry) { e.Config = other }},
		{"config key", func(e *Entry) { e.ConfigKey = other.Key() }},
	} {
		wrong := e
		c.poison(&wrong)
		bad := se
		bad.Payload, _ = json.Marshal(wrong)
		if _, err := EntryForKey(bad, dev.Name, p, 4, cfg); err == nil || !strings.Contains(err.Error(), "not the "+cfg.Key()) {
			t.Errorf("hit check accepted a payload with another %s: %v", c.name, err)
		}
	}

	// The full check rejects what its key cannot vouch for.
	for _, c := range []struct {
		name, want string
		poison     func(*Entry, *store.Key)
	}{
		{"device", "device", func(e *Entry, _ *store.Key) { e.Device = "v100" }},
		{"waves", "waves", func(e *Entry, _ *store.Key) { e.Waves = 8 }},
		{"config key", "round-trip", func(e *Entry, _ *store.Key) { e.ConfigKey = "drifted" }},
		{"kernel hash", "kernel source hash", func(_ *Entry, k *store.Key) { k.KernelHash = "000000000000000000000000" }},
		{"device hash", "device spec hash", func(_ *Entry, k *store.Key) { k.DeviceHash = "ffffffffffffffffffffffff" }},
	} {
		wrong, bad := e, se
		c.poison(&wrong, &bad.Key)
		bad.Payload, _ = json.Marshal(wrong)
		if _, err := EntryFromStore(bad); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("full check accepted a drifted %s: %v", c.name, err)
		}
	}
}

// TestTuneQuarantinesPoisonedStoreEntry drives the quarantine path end
// to end: a store entry whose payload is not the measurement its key was
// derived from is warned about and re-simulated, and the run still
// succeeds with the same tables a clean run renders. Both poisonings
// keep the key and a valid content hash.
func TestTuneQuarantinesPoisonedStoreEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the tiny lattice three times")
	}
	dev := gpu.RTX2070()
	cases := []Case{tinyCase()}

	clean := store.New()
	results, _, err := (&Tuner{Dev: dev, Budget: 4, Workers: 2}).Tune(clean, cases)
	if err != nil {
		t.Fatal(err)
	}
	want := Report(dev, results).Format()
	entries := clean.Entries()
	if len(entries) < 2 {
		t.Fatalf("the clean run stored %d entries, want at least 2", len(entries))
	}

	for _, c := range []struct {
		name   string
		poison func() Entry // the payload to store under entries[0]'s key
	}{
		{"a payload claiming other waves than the key's mode", func() Entry {
			e := mustEntry(t, entries[0])
			e.Waves = 99
			return e
		}},
		{"another candidate's payload", func() Entry { return mustEntry(t, entries[1]) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			poisoned := store.New()
			for i, se := range entries {
				e := mustEntry(t, se)
				if i == 0 {
					e = c.poison()
				}
				if err := poisoned.Put(se.Key, e); err != nil {
					t.Fatal(err)
				}
			}

			var warnings []string
			tn := &Tuner{Dev: dev, Budget: 4, Workers: 2,
				Warnf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }}
			reResults, _, err := tn.Tune(poisoned, cases)
			if err != nil {
				t.Fatal(err)
			}
			if len(warnings) != 1 || !strings.Contains(warnings[0], "quarantined") {
				t.Fatalf("expected one quarantine warning, got %v", warnings)
			}
			if reResults[0].Simulated != 1 {
				t.Fatalf("poisoned entry should re-simulate exactly once, simulated %d", reResults[0].Simulated)
			}
			if got := Report(dev, reResults).Format(); got != want {
				t.Fatal("re-simulated run renders different tables")
			}
		})
	}
}

func mustEntry(t *testing.T, se store.Entry) Entry {
	t.Helper()
	var e Entry
	if err := json.Unmarshal(se.Payload, &e); err != nil {
		t.Fatal(err)
	}
	return e
}
