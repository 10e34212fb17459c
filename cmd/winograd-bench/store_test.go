package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

const storeGoldenPath = "testdata/store_quick.golden"

// TestTuneStoreGolden pins the experiment store the quick tune sweep
// writes — the bytes CI's sharded jobs must reproduce. A single-process
// run's store is the golden; 1-, 2- and 3-way sharded runs merged
// through the `store merge` CLI must match it byte for byte, a warm
// rerun over it must simulate nothing, and `store verify` must pass it.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/winograd-bench -run TestTuneStoreGolden -update
func TestTuneStoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tune sweep simulates a dozen kernels per shard set")
	}
	dir := t.TempDir()

	single := filepath.Join(dir, "single.json")
	out, _, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "4", "-store", single, "tune")
	if code != 0 {
		t.Fatalf("single-process tune exited %d", code)
	}
	if out == "" {
		t.Fatal("unsharded tune printed no tables")
	}
	got, err := os.ReadFile(single)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(storeGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(storeGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", storeGoldenPath, len(got))
	}
	golden, err := os.ReadFile(storeGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(golden, got) {
		t.Errorf("single-process store diverges from %s:\n%s",
			storeGoldenPath, firstDiff(string(golden), string(got)))
	}

	// Warm rerun over the store: same tables, zero simulations, bytes
	// untouched.
	warm, warmErr, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "4", "-store", single, "tune")
	if code != 0 {
		t.Fatalf("warm tune exited %d", code)
	}
	if diff := firstDiff(out, warm); diff != "" {
		t.Errorf("warm tune stdout diverges from cold:\n%s", diff)
	}
	if !strings.Contains(warmErr, "0 candidates simulated") {
		t.Errorf("warm run was not served from the store: %q", warmErr)
	}
	if after, _ := os.ReadFile(single); !bytes.Equal(after, got) {
		t.Error("the warm rerun rewrote the store with different bytes")
	}

	// Sharded runs print no tables and cover the lattice disjointly; the
	// CLI merge of each shard set reproduces the golden byte for byte.
	for n := 1; n <= 3; n++ {
		var shards []string
		for i := 1; i <= n; i++ {
			path := filepath.Join(dir, fmt.Sprintf("shard%d_%d.json", n, i))
			sOut, sErr, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "4",
				"-shard", fmt.Sprintf("%d/%d", i, n), "-store", path, "tune")
			if code != 0 {
				t.Fatalf("shard %d/%d exited %d: %s", i, n, code, sErr)
			}
			if n > 1 && sOut != "" {
				t.Fatalf("shard %d/%d printed tables:\n%s", i, n, sOut)
			}
			shards = append(shards, path)
		}
		merged := filepath.Join(dir, fmt.Sprintf("merged%d.json", n))
		argv := append([]string{"store", "merge", "-o", merged}, shards...)
		if _, errOut, code := runCapture(t, argv...); code != 0 {
			t.Fatalf("store merge of %d shards exited %d: %s", n, code, errOut)
		}
		mb, err := os.ReadFile(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mb, got) {
			t.Errorf("%d-way sharded merge diverges from the single-process store:\n%s",
				n, firstDiff(string(got), string(mb)))
		}
	}

	// verify passes the golden store; ls lists every entry.
	vOut, vErr, code := runCapture(t, "store", "verify", single)
	if code != 0 {
		t.Fatalf("store verify exited %d: %s", code, vErr)
	}
	if !strings.Contains(vOut, "no quarantines, no conflicts") {
		t.Errorf("verify output: %q", vOut)
	}
	st, _ := store.Load(single)
	lsOut, _, code := runCapture(t, "store", "ls", single)
	if code != 0 {
		t.Fatalf("store ls exited %d", code)
	}
	if want := strings.Count(lsOut, "\n") - 1; want != st.Len() {
		t.Errorf("ls listed %d entries, store holds %d", want, st.Len())
	}
}

// TestWarmTuneLeavesStoreAlone: a warm tune that adds nothing to a store
// that loaded clean does not write the file, so its bytes and mtime stay
// as they were; a store that loaded with a quarantined entry is still
// rewritten, without that entry.
func TestWarmTuneLeavesStoreAlone(t *testing.T) {
	golden, err := os.ReadFile(storeGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := os.WriteFile(path, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.Chtimes(path, past, past); err != nil {
		t.Fatal(err)
	}
	tune := func() string {
		t.Helper()
		_, errOut, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "2", "-store", path, "tune")
		if code != 0 || !strings.Contains(errOut, ": 0 candidates simulated") {
			t.Fatalf("warm tune exited %d: %s", code, errOut)
		}
		return errOut
	}
	tune()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(past) {
		t.Errorf("warm tune wrote the store: mtime %v, want %v", fi.ModTime(), past)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Error("warm tune changed the store's bytes")
	}

	// The first entry twice: Load quarantines the copy, so the file is
	// rewritten as the golden.
	first := bytes.Index(golden, []byte("\n    {"))
	end := bytes.Index(golden, []byte("\n    }")) + len("\n    }")
	dup := append(append(append([]byte(nil), golden[:end]...), ','), golden[first:]...)
	if err := os.WriteFile(path, dup, 0o644); err != nil {
		t.Fatal(err)
	}
	if errOut := tune(); !strings.Contains(errOut, "duplicate key") {
		t.Errorf("no quarantine warning for the repeated entry: %s", errOut)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, golden) {
		t.Error("warm tune did not rewrite the store without its quarantined entry")
	}
}

// TestStoreCLIFailures covers the loud paths: merge conflicts name both
// file provenances and exit 1, verify flags quarantined and tampered
// entries non-zero, and shard misuse exits 2.
func TestStoreCLIFailures(t *testing.T) {
	dir := t.TempDir()
	key := store.Key{Device: "d", DeviceHash: "h", KernelHash: "k",
		Problem: "p", Mode: "test"}
	put := func(t *testing.T, path string, v any) {
		t.Helper()
		s := store.New()
		if err := s.Put(key, v); err != nil {
			t.Fatal(err)
		}
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
	}
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	put(t, a, map[string]int{"seconds": 1})
	put(t, b, map[string]int{"seconds": 2})

	// Divergent payloads under the same key: exit 1, both files named.
	merged := filepath.Join(dir, "merged.json")
	_, errOut, code := runCapture(t, "store", "merge", "-o", merged, a, b)
	if code != 1 {
		t.Fatalf("conflicting merge exited %d", code)
	}
	if !strings.Contains(errOut, a) || !strings.Contains(errOut, b) {
		t.Errorf("conflict error does not name both files: %q", errOut)
	}
	if _, err := os.Stat(merged); !os.IsNotExist(err) {
		t.Error("conflicting merge still wrote an output store")
	}

	// The same two files fail verify for the same reason.
	if _, _, code := runCapture(t, "store", "verify", a, b); code != 1 {
		t.Fatalf("conflicting verify exited %d", code)
	}
	// Each alone is fine.
	if _, _, code := runCapture(t, "store", "verify", a); code != 0 {
		t.Fatalf("clean verify exited %d", code)
	}

	// Tamper with a payload byte: load quarantines, verify exits 1.
	raw, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"seconds": 1`), []byte(`"seconds": 9`), 1)
	if bytes.Equal(raw, tampered) {
		t.Fatal("tamper target not found")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errOut, code = runCapture(t, "store", "verify", bad)
	if code != 1 || !strings.Contains(errOut, "quarantined") {
		t.Fatalf("tampered verify: code=%d stderr=%q", code, errOut)
	}

	// A tune-mode entry failing the full round-trip fails verify even
	// though its content hash is self-consistent.
	tuneBad := filepath.Join(dir, "tunebad.json")
	tk := key
	tk.Mode = "tune/waves=4"
	s := store.New()
	if err := s.Put(tk, json.RawMessage(`{"device":"d","waves":4}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(tuneBad); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCapture(t, "store", "verify", tuneBad); code != 1 {
		t.Fatalf("round-trip-failing verify exited %d", code)
	}

	// Shard misuse: no -store, or an out-of-range index.
	if _, errOut, code := runCapture(t, "-shard", "1/2", "tune"); code != 2 ||
		!strings.Contains(errOut, "-shard requires -store") {
		t.Fatalf("shard without store: code=%d stderr=%q", code, errOut)
	}
	if _, _, code := runCapture(t, "-shard", "9/2", "-store", filepath.Join(dir, "s.json"), "tune"); code != 2 {
		t.Fatalf("out-of-range shard exited %d", code)
	}

	// Unknown store verbs and empty argument lists exit 2.
	if _, _, code := runCapture(t, "store"); code != 2 {
		t.Fatal("bare store subcommand accepted")
	}
	if _, _, code := runCapture(t, "store", "frobnicate"); code != 2 {
		t.Fatal("unknown store verb accepted")
	}
	if _, _, code := runCapture(t, "store", "merge", "-o", ""); code != 2 {
		t.Fatal("merge without inputs accepted")
	}
}
