package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The encoding/json store codec the hand-written one replaced, kept as
// the oracle it is fuzzed against.

const goldenStore = "../../cmd/winograd-bench/testdata/store_quick.golden"

type oracleFile struct {
	Schema  string  `json:"schema"`
	Entries []Entry `json:"entries"`
}

func oracleCanonical(payload []byte) (json.RawMessage, string, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, payload); err != nil {
		return nil, "", fmt.Errorf("store: payload is not valid JSON: %v", err)
	}
	return buf.Bytes(), contentHash(buf.Bytes()), nil
}

func oracleLoad(path string, data []byte) (*Store, *LoadReport) {
	s := New()
	rep := &LoadReport{}
	var raw oracleFile
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
		payload, hash, err := oracleCanonical(e.Payload)
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

func oracleSave(s *Store) ([]byte, error) {
	data, err := json.MarshalIndent(&oracleFile{Schema: Schema, Entries: s.Entries()}, "", "  ")
	return append(data, '\n'), err
}

// sameLoad reports how two loads of one file differ: in the entries
// kept (keys, hashes, payload bytes), the quarantine count, or the
// warnings, where a corrupt file's line may differ only in the parser's
// error.
func sameLoad(gotS *Store, got *LoadReport, wantS *Store, want *LoadReport) error {
	ge, we := gotS.Entries(), wantS.Entries()
	if len(ge) != len(we) {
		return fmt.Errorf("kept %d entries, want %d", len(ge), len(we))
	}
	for i := range ge {
		if ge[i].Key != we[i].Key || ge[i].Hash != we[i].Hash || !bytes.Equal(ge[i].Payload, we[i].Payload) {
			return fmt.Errorf("entry %d is %+v (payload %s), want %+v (payload %s)", i, ge[i], ge[i].Payload, we[i], we[i].Payload)
		}
	}
	if got.Quarantined != want.Quarantined || len(got.Warnings) != len(want.Warnings) {
		return fmt.Errorf("report %q (%d quarantined), want %q (%d)", got.Warnings, got.Quarantined, want.Warnings, want.Quarantined)
	}
	for i, w := range want.Warnings {
		g := got.Warnings[i]
		if prefix, ok := strings.CutSuffix(w, "(starting empty)"); ok && strings.HasPrefix(w, "store: corrupt ") {
			prefix = prefix[:strings.Index(prefix, ": ")+2]
			if !strings.HasPrefix(g, "store: corrupt ") || !strings.HasPrefix(g, prefix) || !strings.HasSuffix(g, "(starting empty)") {
				return fmt.Errorf("warning %q, want a corrupt-file line like %q", g, w)
			}
			continue
		}
		if g != w {
			return fmt.Errorf("warning %q, want %q", g, w)
		}
	}
	return nil
}

// storeSeeds are store files that reach every branch of the decoder:
// the committed store, repeated and null keys, folded key names,
// repeated entries arrays, missing and null payloads, type mismatches
// and syntax errors.
func storeSeeds(t testing.TB) []string {
	golden, err := os.ReadFile(goldenStore)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if err := s.Put(testKey(1), payload{Seconds: 1.5, Note: "a<b & \u2028\u2029"}); err != nil {
		t.Fatal(err)
	}
	e, _ := s.Get(testKey(1))
	one := fmt.Sprintf(`{"device":"dev","device_hash":"d0d0d0d0d0d0","kernel_hash":"k00000000001","problem":"c8k64n32h4w4_1","mode":"tune/waves=4","hash":%q,"payload":%s}`, e.Hash, e.Payload)
	return []string{
		string(golden),
		`{"schema":"store/v1","entries":[` + one + `]}`,
		`{"schema":"store/v1","entries":[` + one + `,` + one + `]}`,
		`{"schema":"store/v1","entries":[` + one + `,` + one + `],"entries":[{"device":"x"}]}`,
		`{"schema":"store/v1","entries":[` + one + `],"entries":null,"entries":[{}]}`,
		`{"schema":"store/v1","entries":[` + one + `],"entries":[],"entries":[{"hash":"h"}]}`,
		`{"schema":"store/v1","entries":[null]}`,
		`{"ſchema":"store/v1","ENTRIES":[` + strings.Replace(one, `"mode"`, `"MODE"`, 1) + `]}`,
		`{"schema":"store/v1","entries":[` + strings.Replace(one, `"kernel_hash"`, `"\u212aernel_hash"`, 1) + `]}`,
		`{"schema":"store/v1","entries":[` + strings.Replace(one, `"kernel_hash"`, "\"\u212aernel_hash\"", 1) + `]}`,
		`{"Schema":"store/v1","schema":null,"entries":[` + strings.Replace(one, `"hash"`, `"haſh"`, 1) + `]}`,
		`{"schema":"store/v1","entries":[` + strings.Replace(one, `"payload"`, `"payload":null,"x"`, 1) + `]}`,
		`{"schema":"store/v1","entries":[{"device":"dev","payload":{"a" : [ 1 , {} , [] ] }}]}`,
		`{"schema":"store/v1","entries":[{"device":"dev","device_hash":"h","kernel_hash":"k","problem":"p","mode":"m","hash":"x"}]}`,
		`{"schema":"store/v1","entries":[{"device":1}]}`,
		`{"schema":"store/v1","entries":{}}`,
		`{"schema":2,"entries":[]}`,
		`{"schema":"store/v0","entries":[]}`,
		`null`,
		`[]`,
		` {"schema":"store/v1","entries":[]} x`,
		`{"schema":"store/v1","entries":[],"extra":[[[{"k":"\ud800"}]]]}`,
		`{"schema":"store/v1","entries":[` + strings.Replace(one, `"dev"`, `"dév\xff"`, 1) + `]}`,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"schema":"store/v1","entries":[],"x":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `}`,
		`{"schema":"store/v1","entries":[],"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		``,
	}
}

func FuzzStoreLoad(f *testing.F) {
	for _, s := range storeSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		gotS, got := load("s.json", data)
		wantS, want := oracleLoad("s.json", data)
		if err := sameLoad(gotS, got, wantS, want); err != nil {
			t.Fatalf("file %q: %v", data, err)
		}
		// Whatever Load keeps, Save writes and Load keeps again.
		path := filepath.Join(t.TempDir(), "s.json")
		if err := gotS.Save(path); err != nil {
			t.Fatal(err)
		}
		againS, again := Load(path)
		if err := sameLoad(againS, again, gotS, &LoadReport{}); err != nil {
			t.Fatalf("file %q reloaded: %v", data, err)
		}
	})
}

// TestSaveMatchesMarshalIndent holds Save to the bytes
// json.MarshalIndent wrote for every store whose payloads json.Marshal
// wrote: the committed store, an empty one, and payloads with strings
// that need escaping and empty containers.
func TestSaveMatchesMarshalIndent(t *testing.T) {
	dir := t.TempDir()
	golden, rep := Load(goldenStore)
	if golden.Len() == 0 || len(rep.Warnings) != 0 {
		t.Fatalf("committed store: %d entries, %v", golden.Len(), rep.Warnings)
	}
	odd := New()
	for i, p := range []any{
		payload{Seconds: 2, Note: `<&> "q" \ é ☃ 𝄞 ` + "\u2028\u2029\x00\x1f\xff"},
		map[string]any{"a": []any{}, "b": map[string]any{}, "c": []any{1, []any{2, map[string]any{"d": nil}}}},
		[]int{},
		"just a string",
		nil,
	} {
		mustPut(t, odd, testKey(i), p)
	}
	for i, s := range []*Store{golden, New(), odd} {
		path := filepath.Join(dir, "s.json")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		got := mustRead(t, path)
		want, err := oracleSave(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Save wrote\n%s\nwant\n%s", got, want)
		}
		if i == 0 && !bytes.Equal(got, mustRead(t, goldenStore)) {
			t.Error("saving the committed store changed its bytes")
		}
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadSaveLoadKeepsUnescapedPayloads: a payload whose strings hold
// <, >, &, U+2028 or U+2029 unescaped is hashed over those bytes, so
// saving it must not escape them, or the next load quarantines it.
func TestLoadSaveLoadKeepsUnescapedPayloads(t *testing.T) {
	dir := t.TempDir()
	for _, p := range []string{`{"note":"a<b"}`, `{"note":">&` + "\u2028\u2029" + `"}`, `["<",{"&":">"}]`} {
		hash := contentHash([]byte(p))
		file := fmt.Sprintf(`{"schema":"store/v1","entries":[{"device":"dev","device_hash":"d0d0d0d0d0d0","kernel_hash":"k1","problem":"p1","mode":"tune/waves=4","hash":%q,"payload":%s}]}`, hash, p)
		path := filepath.Join(dir, "s.json")
		if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
			t.Fatal(err)
		}
		s, rep := Load(path)
		if s.Len() != 1 || len(rep.Warnings) != 0 {
			t.Fatalf("payload %s: first load kept %d entries, %v", p, s.Len(), rep.Warnings)
		}
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		if s, rep = Load(path); s.Len() != 1 || len(rep.Warnings) != 0 {
			t.Errorf("payload %s: reload after Save kept %d entries, %v", p, s.Len(), rep.Warnings)
		}
	}
}
