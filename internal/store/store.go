// Package store is the content-addressed experiment store: the
// persistent, shareable result database that lets tuning shards across
// processes and CI runs contribute measurements incrementally instead of
// recomputing them (the cuDNN-style per-shape finder persistence the
// paper's search presumes).
//
// Every entry is addressed by a five-part Key — device name + device
// spec hash, kernel-source hash, problem, and mode — and carries a
// content hash of its payload bytes. The simulation backend and worker
// count are deliberately absent from the key: backends are bit-identical
// by contract (DESIGN.md §12), so results are shared across them. Any
// input that can change a result (a device-file edit, a generator or
// assembler change) changes a key component instead, so stale results
// are invalidated by a key miss, never served.
//
// Serialization is byte-deterministic: Save sorts entries by key and
// emits canonical JSON, so any set of processes — one, or N disjoint
// shards merged — that measured the same entries writes the identical
// file. Merge is commutative, associative, and idempotent; two entries
// under one key with different payloads are a loud conflict naming both
// provenances, never a silent last-writer-wins. Corrupt entries are
// quarantined on load (skipped with a warning, like tune's cold-cache
// policy) and counted, so `winograd-bench store verify` can turn any
// quarantine into a non-zero exit.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Schema versions the store file format. Loaders refuse (with a warning,
// not an error) any file carrying a different schema: a stale store must
// degrade to an empty one, never poison a run with entries serialized
// under different semantics.
const Schema = "store/v1"

// Key addresses one result. All five fields are part of the address;
// everything else about an entry is payload.
type Key struct {
	// Device is the device model's registered name.
	Device string `json:"device"`
	// DeviceHash is gpu.Device.SpecHash() — the content hash of the full
	// device specification, so edited device files miss instead of hit.
	DeviceHash string `json:"device_hash"`
	// KernelHash is the content hash of the kernel source the result was
	// measured on (kernels.SourceHash), so generator changes miss.
	KernelHash string `json:"kernel_hash"`
	// Problem is the canonical problem key (kernels.Problem.Key()).
	Problem string `json:"problem"`
	// Mode names the measurement protocol (e.g. "tune/waves=4"). The
	// simulation backend and worker count are intentionally not part of
	// the mode: they are bit-identical by contract.
	Mode string `json:"mode"`
}

// String renders the canonical key string — the sort and index key.
func (k Key) String() string {
	return fmt.Sprintf("%s|%s|%s|%s|%s", k.Device, k.DeviceHash, k.KernelHash, k.Problem, k.Mode)
}

// Validate rejects keys that would be ambiguous in the canonical string
// form or that leave an address component blank.
func (k Key) Validate() error {
	for _, f := range []struct{ name, v string }{
		{"device", k.Device}, {"device_hash", k.DeviceHash},
		{"kernel_hash", k.KernelHash}, {"problem", k.Problem}, {"mode", k.Mode},
	} {
		if f.v == "" {
			return fmt.Errorf("store: key field %s is empty", f.name)
		}
		if strings.ContainsAny(f.v, "|\n") {
			return fmt.Errorf("store: key field %s %q contains a reserved character", f.name, f.v)
		}
	}
	return nil
}

// Entry is one stored result: its address, the content hash of the
// payload bytes, and the payload itself (opaque to the store; the tune
// layer reads and writes tune.Entry payloads through it).
type Entry struct {
	Key
	Hash    string          `json:"hash"`
	Payload json.RawMessage `json:"payload"`
}

// canonical returns a JSON payload's compact canonical form and that
// form's content hash, so indentation differences between files cannot
// change an entry's bytes or address.
func canonical(payload []byte) (json.RawMessage, string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return nil, "", fmt.Errorf("store: payload is not valid JSON: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return buf.Bytes(), hex.EncodeToString(sum[:12]), nil
}

// Store is an in-memory set of entries indexed by key.
type Store struct {
	entries map[string]Entry
}

// New returns an empty store.
func New() *Store { return &Store{entries: map[string]Entry{}} }

// Len reports how many entries the store holds.
func (s *Store) Len() int { return len(s.entries) }

// Put marshals the payload, content-addresses it, and inserts the entry
// under its key, replacing any existing entry. Within one process the
// writer is the measurement source of truth; divergence between stores
// is detected loudly by Merge, not here.
func (s *Store) Put(k Key, payload any) error {
	if err := k.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("store: marshaling payload for %s: %v", k, err)
	}
	data, hash, err := canonical(data)
	if err != nil {
		return err
	}
	if s.entries == nil {
		s.entries = map[string]Entry{}
	}
	s.entries[k.String()] = Entry{Key: k, Hash: hash, Payload: data}
	return nil
}

// Get looks an entry up by key.
func (s *Store) Get(k Key) (Entry, bool) {
	e, ok := s.entries[k.String()]
	return e, ok
}

// Entries returns every entry sorted by key — the canonical order Save
// serializes and `store ls` prints.
func (s *Store) Entries() []Entry {
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.String() < out[j].Key.String() })
	return out
}

// file is the serialized form.
type file struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

// Save writes the store to path, creating parent directories as needed.
// Entries are sorted by key, payloads re-emitted from their compact
// canonical bytes, and floats already carry encoding/json's shortest
// round-trip form — so the bytes are a pure function of the contents:
// any shard count, worker count, or cold/warm history that holds the
// same entries writes the identical file.
func (s *Store) Save(path string) error {
	out := file{Schema: Schema, Entries: s.Entries()}
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadReport describes what Load had to discard. Quarantined counts the
// entries skipped (bad key, hash mismatch, duplicate key); Warnings has
// one line per problem, including whole-file ones (corrupt JSON, stale
// schema).
type LoadReport struct {
	Warnings    []string
	Quarantined int
}

// Load reads the store at path. A missing file is a plain cold start; a
// corrupt file or a schema mismatch yields an empty store plus a
// warning; an entry whose key is malformed, whose content hash does not
// match its payload, or whose key repeats an earlier entry is
// quarantined — skipped with a warning — and every surviving entry is
// kept. Loading never fails and never trusts bytes it cannot re-derive:
// a damaged store degrades to a smaller (or empty) one, and tuning
// re-simulates the difference.
//
// A matching content hash certifies payload integrity only; it does not
// re-run domain-level validation of what the payload claims (that is
// `store verify` / tune's -storeverify, the expensive full check).
func Load(path string) (*Store, *LoadReport) {
	s := New()
	rep := &LoadReport{}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return s, rep
		}
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: unreadable %s: %v (starting empty)", path, err))
		return s, rep
	}
	var raw file
	if err := json.Unmarshal(data, &raw); err != nil {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: corrupt %s: %v (starting empty)", path, err))
		return s, rep
	}
	if raw.Schema != Schema {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: %s has schema %q, want %q (starting empty)", path, raw.Schema, Schema))
		return s, rep
	}
	for _, e := range raw.Entries {
		if err := e.Key.Validate(); err != nil {
			rep.quarantine(path, e, err.Error())
			continue
		}
		payload, hash, err := canonical(e.Payload)
		if err != nil {
			rep.quarantine(path, e, err.Error())
			continue
		}
		if hash != e.Hash {
			rep.quarantine(path, e, fmt.Sprintf("content hash %s does not match payload (recomputed %s)", e.Hash, hash))
			continue
		}
		if _, dup := s.entries[e.Key.String()]; dup {
			rep.quarantine(path, e, "duplicate key")
			continue
		}
		e.Payload = payload
		s.entries[e.Key.String()] = e
	}
	return s, rep
}

func (r *LoadReport) quarantine(path string, e Entry, why string) {
	r.Quarantined++
	r.Warnings = append(r.Warnings, fmt.Sprintf("store: %s: entry %s quarantined: %s", path, e.Key, why))
}
