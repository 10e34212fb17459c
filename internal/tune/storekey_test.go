package tune

import (
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/gpu"
	"repro/internal/store"
)

// TestStoreKeysMatchGolden derives the store key of every candidate the
// quick tune keys at budget 6 on the RTX 2070 — the run that writes
// cmd/winograd-bench/testdata/store_quick.golden — and requires exactly
// the golden's 12 keys. A key hashes the assembled kernel, so any drift
// in the emitter, the assembler or HashKernel fails here in seconds,
// without simulating a kernel.
func TestStoreKeysMatchGolden(t *testing.T) {
	golden, rep := store.Load(filepath.Join("..", "..", "cmd", "winograd-bench", "testdata", "store_quick.golden"))
	if len(rep.Warnings) != 0 {
		t.Fatalf("loading the golden store: %v", rep.Warnings)
	}
	var want []string
	for _, e := range golden.Entries() {
		want = append(want, e.Key.String())
	}

	dev := gpu.RTX2070()
	cands := DefaultSpace().Enumerate()
	var got []string
	for _, c := range SweepCases(true) {
		var stats PruneStats
		for _, cfg := range StaticPrune(dev, c.P, cands, 6, &stats) {
			key, err := StoreKey(dev, c.P, 4, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, key.String())
		}
	}
	sort.Strings(want)
	sort.Strings(got)
	if len(want) != 12 {
		t.Fatalf("golden store holds %d keys, want 12", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("derived %d keys, golden holds %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d: derived %s, golden %s", i, got[i], want[i])
		}
	}
}
