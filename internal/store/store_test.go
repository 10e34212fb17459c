package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// payload is a stand-in result; the store treats payloads as opaque JSON.
type payload struct {
	Seconds float64 `json:"seconds"`
	Note    string  `json:"note,omitempty"`
}

func testKey(i int) Key {
	return Key{
		Device:     "dev",
		DeviceHash: "d0d0d0d0d0d0",
		KernelHash: fmt.Sprintf("k%011d", i),
		Problem:    fmt.Sprintf("c8k64n32h4w4_%d", i),
		Mode:       "tune/waves=4",
	}
}

func mustPut(t *testing.T, s *Store, k Key, v any) {
	t.Helper()
	if err := s.Put(k, v); err != nil {
		t.Fatal(err)
	}
}

func TestKeyValidate(t *testing.T) {
	good := testKey(0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid key rejected: %v", err)
	}
	bad := good
	bad.Problem = ""
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "problem") {
		t.Fatalf("empty problem accepted: %v", err)
	}
	bad = good
	bad.Mode = "tune|waves=4"
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "reserved") {
		t.Fatalf("reserved character accepted: %v", err)
	}
}

func TestSaveLoadRoundTripAndOrderIndependence(t *testing.T) {
	dir := t.TempDir()
	a, b := testKey(1), testKey(2)
	pa, pb := payload{Seconds: 1.5}, payload{Seconds: 2.5, Note: "slow"}

	s1 := New()
	mustPut(t, s1, a, pa)
	mustPut(t, s1, b, pb)
	s2 := New()
	mustPut(t, s2, b, pb)
	mustPut(t, s2, a, pa)

	p1, p2 := filepath.Join(dir, "ab.json"), filepath.Join(dir, "ba.json")
	if err := s1.Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := s2.Save(p2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if string(b1) != string(b2) {
		t.Fatal("store bytes depend on insertion order")
	}

	s3, rep := Load(p1)
	if len(rep.Warnings) != 0 || rep.Quarantined != 0 {
		t.Fatalf("round-trip load report: %+v", rep)
	}
	if s3.Len() != 2 {
		t.Fatalf("round-trip lost entries: %d", s3.Len())
	}
	e, ok := s3.Get(a)
	if !ok {
		t.Fatal("round-trip lost key a")
	}
	var got payload
	if err := json.Unmarshal(e.Payload, &got); err != nil || got != pa {
		t.Fatalf("payload round-trip: %+v err=%v", got, err)
	}

	// Save after load reproduces the identical bytes (the warm-rerun
	// contract the CI store jobs cmp).
	p3 := filepath.Join(dir, "resave.json")
	if err := s3.Save(p3); err != nil {
		t.Fatal(err)
	}
	b3, _ := os.ReadFile(p3)
	if string(b3) != string(b1) {
		t.Fatal("save-load-save changed the bytes")
	}
}

func TestPutReplacesAndRehashes(t *testing.T) {
	s := New()
	k := testKey(1)
	mustPut(t, s, k, payload{Seconds: 1})
	e1, _ := s.Get(k)
	mustPut(t, s, k, payload{Seconds: 2})
	e2, _ := s.Get(k)
	if s.Len() != 1 {
		t.Fatalf("replace grew the store to %d", s.Len())
	}
	if e1.Hash == e2.Hash {
		t.Fatal("different payloads share a content hash")
	}
	_, want, err := canonical(e2.Payload)
	if err != nil || want != e2.Hash {
		t.Fatalf("stored hash %s, recomputed %s (err=%v)", e2.Hash, want, err)
	}
}

func TestLoadGracefulDegradation(t *testing.T) {
	dir := t.TempDir()

	// Missing file: empty, silent.
	s, rep := Load(filepath.Join(dir, "absent.json"))
	if s.Len() != 0 || len(rep.Warnings) != 0 || rep.Quarantined != 0 {
		t.Fatalf("missing file: %d entries, %+v", s.Len(), rep)
	}

	// Corrupt JSON: empty plus one warning, no quarantine count (the
	// whole file is unusable, there are no entries to count).
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	s, rep = Load(bad)
	if s.Len() != 0 || len(rep.Warnings) != 1 || rep.Quarantined != 0 {
		t.Fatalf("corrupt file: %d entries, %+v", s.Len(), rep)
	}

	// Stale schema: empty plus one warning.
	stale := filepath.Join(dir, "stale.json")
	os.WriteFile(stale, []byte(`{"schema":"store/v0","entries":[]}`), 0o644)
	s, rep = Load(stale)
	if s.Len() != 0 || len(rep.Warnings) != 1 {
		t.Fatalf("stale schema: %d entries, %+v", s.Len(), rep)
	}
}

// TestSaveFailureLeavesNoTemporaryFile: Save writes a temporary file
// beside the destination and renames it over; when the rename fails
// (here the destination is a directory) the temporary file goes too.
func TestSaveFailureLeavesNoTemporaryFile(t *testing.T) {
	dir := t.TempDir()
	s := New()
	mustPut(t, s, testKey(1), payload{Seconds: 1})
	if err := os.Mkdir(filepath.Join(dir, "store.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(filepath.Join(dir, "store.json")); err == nil {
		t.Fatal("Save over a directory succeeded")
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "store.json" {
		t.Fatalf("after the failed Save the directory holds %v, want only store.json", names)
	}
}

// TestSaveKeepsCorruptFile: a store loaded from a corrupt file starts
// empty, and saving it over that file first keeps the file's bytes as
// <path>.corrupt, which the load warning names.
func TestSaveKeepsCorruptFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.json")
	truncated := `{"schema": "store/v1", "entries": [{"device": "de`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}
	s, rep := Load(path)
	if s.Len() != 0 || len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], path+".corrupt") {
		t.Fatalf("corrupt file: %d entries, warnings %q naming %s.corrupt", s.Len(), rep.Warnings, path)
	}
	mustPut(t, s, testKey(1), payload{Seconds: 1})
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	if got := string(mustRead(t, path+".corrupt")); got != truncated {
		t.Errorf("%s.corrupt holds %q, want the corrupt file's bytes %q", path, got, truncated)
	}
	if again, rep := Load(path); again.Len() != 1 || len(rep.Warnings) != 0 {
		t.Errorf("reloading the saved store: %d entries, %v", again.Len(), rep.Warnings)
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("the directory holds %v, want store.json and store.json.corrupt", names)
	}
}

// dirNames lists the names in dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

func TestLoadQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	good := New()
	mustPut(t, good, testKey(1), payload{Seconds: 1})
	mustPut(t, good, testKey(2), payload{Seconds: 2})
	path := filepath.Join(dir, "store.json")
	if err := good.Save(path); err != nil {
		t.Fatal(err)
	}

	// Flip one payload without updating its hash: that entry (and only
	// that entry) must be quarantined.
	data, _ := os.ReadFile(path)
	tampered := strings.Replace(string(data), `"seconds": 1`, `"seconds": 9`, 1)
	if tampered == string(data) {
		t.Fatal("tamper target not found")
	}
	os.WriteFile(path, []byte(tampered), 0o644)
	s, rep := Load(path)
	if s.Len() != 1 || rep.Quarantined != 1 || len(rep.Warnings) != 1 {
		t.Fatalf("tampered entry: %d survivors, %+v", s.Len(), rep)
	}
	if !strings.Contains(rep.Warnings[0], "content hash") {
		t.Fatalf("warning does not explain the hash mismatch: %q", rep.Warnings[0])
	}
	if _, ok := s.Get(testKey(2)); !ok {
		t.Fatal("untampered entry did not survive")
	}

	// A duplicated key quarantines the second occurrence.
	dup := strings.Replace(string(data), `"entries": [`, `"entries": [`, 1)
	var f struct {
		Schema  string            `json:"schema"`
		Entries []json.RawMessage `json:"entries"`
	}
	if err := json.Unmarshal([]byte(dup), &f); err != nil {
		t.Fatal(err)
	}
	f.Entries = append(f.Entries, f.Entries[0])
	dupBytes, _ := json.Marshal(f)
	dupPath := filepath.Join(dir, "dup.json")
	os.WriteFile(dupPath, dupBytes, 0o644)
	s, rep = Load(dupPath)
	if s.Len() != 2 || rep.Quarantined != 1 {
		t.Fatalf("duplicate key: %d survivors, %+v", s.Len(), rep)
	}
	if !strings.Contains(strings.Join(rep.Warnings, "\n"), "duplicate key") {
		t.Fatalf("warning does not name the duplicate: %v", rep.Warnings)
	}

	// A malformed key (empty field) quarantines its entry.
	blank := strings.Replace(string(data), `"problem": "c8k64n32h4w4_1"`, `"problem": ""`, 1)
	blankPath := filepath.Join(dir, "blank.json")
	os.WriteFile(blankPath, []byte(blank), 0o644)
	s, rep = Load(blankPath)
	if s.Len() != 1 || rep.Quarantined != 1 {
		t.Fatalf("blank key field: %d survivors, %+v", s.Len(), rep)
	}
}

func TestLoadIndentationInvariantHash(t *testing.T) {
	// The same entry serialized compact and indented must load to the
	// same content hash: the hash covers canonical payload bytes.
	dir := t.TempDir()
	s := New()
	mustPut(t, s, testKey(1), payload{Seconds: 1.25, Note: "x"})
	path := filepath.Join(dir, "s.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, rep := Load(path)
	if rep.Quarantined != 0 {
		t.Fatalf("indented payload quarantined: %+v", rep)
	}
	le, _ := loaded.Get(testKey(1))
	se, _ := s.Get(testKey(1))
	if le.Hash != se.Hash {
		t.Fatalf("hash changed across save/load: %s vs %s", se.Hash, le.Hash)
	}
}
