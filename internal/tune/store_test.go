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

// TestEntryFromStoreValidation pins the two-tier validation policy: the
// cheap address-consistency checks always run, the expensive round-trip
// only under verify — and a poisoned entry is quarantined (warned and
// re-simulated), never trusted and never fatal.
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

	if _, err := EntryFromStore(se, 4, false); err != nil {
		t.Fatalf("clean entry rejected without verify: %v", err)
	}
	if _, err := EntryFromStore(se, 4, true); err != nil {
		t.Fatalf("clean entry rejected with verify: %v", err)
	}
	if err := VerifyEntry(se); err != nil {
		t.Fatalf("VerifyEntry rejected a clean entry: %v", err)
	}

	// Wrong-device payload fails the always-on cheap check.
	bad := se
	wrong := e
	wrong.Device = "v100"
	bad.Payload, _ = json.Marshal(wrong)
	if _, err := EntryFromStore(bad, 4, false); err == nil || !strings.Contains(err.Error(), "device") {
		t.Fatalf("device mismatch accepted: %v", err)
	}

	// Wrong waves fails the mode check.
	bad = se
	wrong = e
	wrong.Waves = 8
	bad.Payload, _ = json.Marshal(wrong)
	if _, err := EntryFromStore(bad, 4, false); err == nil || !strings.Contains(err.Error(), "waves") {
		t.Fatalf("waves mismatch accepted: %v", err)
	}

	// A config-key drift passes the cheap tier (content is internally
	// addressed) but fails the verify tier — the -storeverify contract.
	bad = se
	wrong = e
	wrong.ConfigKey = "drifted"
	bad.Payload, _ = json.Marshal(wrong)
	if _, err := EntryFromStore(bad, 4, false); err != nil {
		t.Fatalf("cheap tier ran the expensive round-trip: %v", err)
	}
	if _, err := EntryFromStore(bad, 4, true); err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("config drift survived verify: %v", err)
	}

	// A kernel-hash drift in the key likewise only trips verify.
	badKey := se
	badKey.Key.KernelHash = "000000000000000000000000"
	if _, err := EntryFromStore(badKey, 4, false); err != nil {
		t.Fatalf("cheap tier checked the kernel hash: %v", err)
	}
	if _, err := EntryFromStore(badKey, 4, true); err == nil || !strings.Contains(err.Error(), "kernel source hash") {
		t.Fatalf("kernel hash drift survived verify: %v", err)
	}

	// A device-spec drift in the key only trips verify too.
	badKey = se
	badKey.Key.DeviceHash = "ffffffffffffffffffffffff"
	if _, err := EntryFromStore(badKey, 4, true); err == nil || !strings.Contains(err.Error(), "device spec hash") {
		t.Fatalf("device hash drift survived verify: %v", err)
	}
}

// TestTuneQuarantinesPoisonedStoreEntry drives the quarantine path end
// to end: a store entry whose payload disagrees with its address is
// warned about and re-simulated, and the run still succeeds with the
// same tables a clean run renders.
func TestTuneQuarantinesPoisonedStoreEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the tiny lattice twice")
	}
	dev := gpu.RTX2070()
	cases := []Case{tinyCase()}

	clean := store.New()
	results, _, err := (&Tuner{Dev: dev, Budget: 4, Workers: 2}).Tune(clean, cases)
	if err != nil {
		t.Fatal(err)
	}
	want := Report(dev, results).Format()

	// Poison one entry: same key and self-consistent hash, but a payload
	// claiming different waves than the key's mode.
	poisoned := store.New()
	for i, se := range clean.Entries() {
		if i == 0 {
			var e Entry
			if err := json.Unmarshal(se.Payload, &e); err != nil {
				t.Fatal(err)
			}
			e.Waves = 99
			if err := poisoned.Put(se.Key, e); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := poisoned.Put(se.Key, mustEntry(t, se)); err != nil {
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
}

func mustEntry(t *testing.T, se store.Entry) Entry {
	t.Helper()
	var e Entry
	if err := json.Unmarshal(se.Payload, &e); err != nil {
		t.Fatal(err)
	}
	return e
}
