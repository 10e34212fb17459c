package tune

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/store"
)

// payloadSeeds are tune payloads that reach every branch of
// decodeEntry: every payload of the committed store, and hand-written
// ones with folded key names (U+212A for k, U+017F for s), repeated
// keys, nulls, non-integers in int fields, nil versus empty stalls,
// and type mismatches.
func payloadSeeds(t testing.TB) []string {
	st, rep := store.Load("../../cmd/winograd-bench/testdata/store_quick.golden")
	if st.Len() == 0 || len(rep.Warnings) != 0 {
		t.Fatalf("committed store: %d entries, %v", st.Len(), rep.Warnings)
	}
	var seeds []string
	for _, e := range st.Entries() {
		seeds = append(seeds, string(e.Payload))
	}
	return append(seeds,
		`{"device":"RTX2070","shape":{"C":64,"K":32,"n":1,"h":2,"w":3},"config":{"bK":64,"ſTSGap":6,"useP2R":true},"waves":4}`,
		`{"ſeconds":1.5,"SOL":0.5,"ſtallſ":{"a":1},"ſchema":1,"ſol":0.25}`,
		`{"device":"a","device":"b","waves":1,"waves":2,"shape":{"C":1},"shape":{"K":2},"config":{"BK":1},"config":{"LDGGap":2}}`,
		`{"stalls":{"a":1,"b":2},"stalls":{"b":3,"c":null}}`,
		`{"stalls":{"a":1},"stalls":null,"stalls":{}}`,
		`{"stalls":{}}`,
		`{"stalls":null}`,
		`{"device":null,"waves":null,"seconds":null,"shape":null,"config":{"UseP2R":null,"BK":null}}`,
		`{"shape":{"\u212a":7},"config":{"B\u212a":32,"\u017fTSGap":2}}`,
		`{"waves":1e2}`,
		`{"waves":1.5}`,
		`{"waves":-0}`,
		`{"waves":9223372036854775808}`,
		`{"shape":{"C":1.0}}`,
		`{"config":{"UseP2R":1}}`,
		`{"seconds":"1"}`,
		`{"seconds":1e400}`,
		`{"seconds":-0,"tflops":1e-400,"sol":4.9e-324}`,
		`{"stalls":{"a":"x"}}`,
		`{"stalls":[]}`,
		`{"shape":[1,2]}`,
		`{"device":"dév\ud800\xff","problem":"\"\\\/\b\f\n\r\t"}`,
		`{"unknown":[{"x":[null,true,false,1,"s"]}],"device":"x"}`,
		`null`,
		`[]`,
		`{} x`,
		`{"device":"x",}`,
		``,
	)
}

// FuzzEntryPayload holds decodeEntry to json.Unmarshal into an Entry:
// for any payload both give the same value, or both give an error.
func FuzzEntryPayload(f *testing.F) {
	for _, s := range payloadSeeds(f) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want Entry
		err := decodeEntry(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("payload %q: decodeEntry error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("payload %q: decodeEntry gave %+v, json.Unmarshal %+v", data, got, want)
		}
	})
}
