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
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/jsonx"
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
	return k.Device + "|" + k.DeviceHash + "|" + k.KernelHash + "|" + k.Problem + "|" + k.Mode
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
	d := jsonx.NewDecoder(payload, "")
	d.Space()
	data, err := d.Compact(make([]byte, 0, len(payload)))
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return nil, "", fmt.Errorf("store: payload is not valid JSON: %v", err)
	}
	return data, contentHash(data), nil
}

// contentHash is the content address of a compact payload.
func contentHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// Store is an in-memory set of entries indexed by key.
type Store struct {
	entries map[string]Entry
	// corruptPath and corrupt are the path and bytes of a file Load found
	// corrupt, which Save keeps as corruptPath+".corrupt" before it
	// replaces that file.
	corruptPath string
	corrupt     []byte
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
	keys := s.sortedKeys()
	out := make([]Entry, len(keys))
	for i, k := range keys {
		out[i] = s.entries[k]
	}
	return out
}

// sortedKeys returns the entries' key strings in order.
func (s *Store) sortedKeys() []string {
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Save writes the store to path, creating parent directories as needed.
// It replaces path atomically: a Save that fails or is killed leaves the
// old file as it was. When the store was loaded from a corrupt file at
// path, Save first keeps that file's bytes as path+".corrupt". Entries
// are sorted by key and payloads indented from their compact
// canonical bytes, which carry encoding/json's shortest round-trip
// floats — so the bytes are a pure function of the contents: any shard
// count, worker count, or cold/warm history that holds the same entries
// writes the identical file. The layout is json.MarshalIndent's with
// two-space indentation, plus a final newline. Payload strings are
// written as they were loaded, never re-escaped, so saving what Load
// accepted keeps every entry's content hash.
func (s *Store) Save(path string) error {
	data := jsonx.AppendString([]byte("{\n  \"schema\": "), Schema)
	data = append(data, ",\n  \"entries\": ["...)
	for i, k := range s.sortedKeys() {
		e := s.entries[k]
		if i > 0 {
			data = append(data, ',')
		}
		data = append(data, "\n    {"...)
		for _, f := range [...]struct{ name, v string }{
			{"device", e.Device}, {"device_hash", e.DeviceHash}, {"kernel_hash", e.KernelHash},
			{"problem", e.Problem}, {"mode", e.Mode}, {"hash", e.Hash},
		} {
			data = append(data, "\n      \""...)
			data = append(data, f.name...)
			data = jsonx.AppendString(append(data, `": `...), f.v)
			data = append(data, ',')
		}
		data = append(data, "\n      \"payload\": "...)
		if len(e.Payload) == 0 {
			data = append(data, "null"...)
		}
		data = jsonx.AppendIndent(data, e.Payload, "  ", 3)
		data = append(data, "\n    }"...)
	}
	if len(s.entries) > 0 {
		data = append(data, "\n  "...)
	}
	data = append(data, "]\n}\n"...)
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if s.corrupt != nil && filepath.Clean(path) == filepath.Clean(s.corruptPath) {
		if err := writeFile(path+".corrupt", s.corrupt); err != nil {
			return err
		}
	}
	return writeFile(path, data)
}

// writeFile replaces path with data: it writes a temporary file beside
// path, syncs and closes it, and renames it over path. On any error it
// removes the temporary file, and path keeps what it held.
func writeFile(path string, data []byte) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
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
// warning (saving a store loaded from a corrupt file back to its path
// keeps the file as path+".corrupt" first); an entry whose key is
// malformed, whose content hash does not match its payload, or whose
// key repeats an earlier entry is quarantined — skipped with a warning
// — and every surviving entry is kept. Loading never fails and never trusts bytes it cannot re-derive:
// a damaged store degrades to a smaller (or empty) one, and tuning
// re-simulates the difference.
//
// A matching content hash certifies payload integrity only; it does not
// check what the payload claims against its key (the tuner checks each
// hit against the inputs it derived the key from; `store verify` runs
// the full round-trip).
func Load(path string) (*Store, *LoadReport) {
	data, err := os.ReadFile(path)
	if err != nil {
		rep := &LoadReport{}
		if !os.IsNotExist(err) {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: unreadable %s: %v (starting empty)", path, err))
		}
		return New(), rep
	}
	return load(path, data)
}

// load is Load of a file's bytes.
func load(path string, data []byte) (*Store, *LoadReport) {
	s := New()
	rep := &LoadReport{}
	schema, entries, err := decodeFile(data)
	if err != nil {
		s.corruptPath, s.corrupt = path, data
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: corrupt %s: %v; saving over it keeps it as %s.corrupt (starting empty)", path, err, path))
		return s, rep
	}
	if schema != Schema {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("store: %s has schema %q, want %q (starting empty)", path, schema, Schema))
		return s, rep
	}
	for _, e := range entries {
		if err := e.Key.Validate(); err != nil {
			rep.quarantine(path, e, err.Error())
			continue
		}
		if e.Payload == nil { // no "payload" key: what json.Compact says of no bytes
			rep.quarantine(path, e, "store: payload is not valid JSON: unexpected end of JSON input")
			continue
		}
		if hash := contentHash(e.Payload); hash != e.Hash {
			rep.quarantine(path, e, fmt.Sprintf("content hash %s does not match payload (recomputed %s)", e.Hash, hash))
			continue
		}
		k := e.Key.String()
		if _, dup := s.entries[k]; dup {
			rep.quarantine(path, e, "duplicate key")
			continue
		}
		s.entries[k] = e
	}
	return s, rep
}

// decodeFile reads a store file in one pass, as json.Unmarshal would
// into {schema, entries []Entry}, except that each payload is kept
// compacted: a missing one stays nil. As in that slice, an element of
// a repeated "entries" array decodes over what an earlier array left at
// its index, and one past every earlier array starts from zero.
func decodeFile(data []byte) (schema string, entries []Entry, err error) {
	d := jsonx.NewDecoder(data, "")
	arena := make([]byte, 0, len(data)) // every payload, compacted
	n := 0
	d.Space()
	err = d.Object(func(key []byte) error {
		switch {
		case jsonx.KeyIs(key, "schema"):
			return d.String(&schema)
		case jsonx.KeyIs(key, "entries"):
			m, err := d.Array(func(i int) error {
				if i == len(entries) {
					entries = append(entries, Entry{})
				}
				e := &entries[i]
				return d.Object(func(key []byte) error {
					switch {
					case jsonx.KeyIs(key, "device"):
						return d.String(&e.Device)
					case jsonx.KeyIs(key, "device_hash"):
						return d.String(&e.DeviceHash)
					case jsonx.KeyIs(key, "kernel_hash"):
						return d.String(&e.KernelHash)
					case jsonx.KeyIs(key, "problem"):
						return d.String(&e.Problem)
					case jsonx.KeyIs(key, "mode"):
						return d.String(&e.Mode)
					case jsonx.KeyIs(key, "hash"):
						return d.String(&e.Hash)
					case jsonx.KeyIs(key, "payload"):
						start := len(arena)
						var err error
						arena, err = d.Compact(arena)
						e.Payload = arena[start:len(arena):len(arena)]
						return err
					}
					return d.Skip()
				})
			})
			if n = m; m <= 0 { // null or [] leaves a fresh slice
				entries, n = entries[:0], 0
			}
			return err
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
	return schema, entries[:n], err
}

func (r *LoadReport) quarantine(path string, e Entry, why string) {
	r.Quarantined++
	r.Warnings = append(r.Warnings, fmt.Sprintf("store: %s: entry %s quarantined: %s", path, e.Key, why))
}
