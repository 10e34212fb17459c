package jsonx

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzCompactIndent holds Compact to json.Compact (same acceptance,
// same bytes) and AppendIndent to json.Indent on what they compact, up
// to 1 KB.
func FuzzCompactIndent(f *testing.F) {
	for _, s := range []string{
		`{"a" : [ 1 , {} , [ ] , { "b" : null } ] , "c":"<&>  \"x\\"}`,
		` "s" `, `-0.5e+3`, `[true,false,null]`, `{"k":{"k":{"k":[[]]}}}`,
		`{"a":1,}`, `[1 2]`, `"\ud800\xff"`, `01`, `{} {}`, ``,
		strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDecoder(data, "")
		d.Space()
		got, err := d.Compact(nil)
		if err == nil {
			err = d.End()
		}
		var want bytes.Buffer
		wantErr := json.Compact(&want, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: Compact error %v, json.Compact error %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%q: Compact gave %q, json.Compact %q", data, got, want.Bytes())
		}
		if len(got) > 1<<10 {
			return // indenting costs depth² bytes: keep the fuzzer fast
		}
		var indented bytes.Buffer
		if err := json.Indent(&indented, got, "", "  "); err != nil {
			t.Fatal(err)
		}
		if ind := AppendIndent(nil, got, "  ", 0); !bytes.Equal(ind, indented.Bytes()) {
			t.Fatalf("%q: AppendIndent gave %q, json.Indent %q", got, ind, indented.Bytes())
		}
	})
}

// TestAppendStringMatchesMarshal: AppendString quotes as json.Marshal.
func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{"", "plain", `<&> "q" \ é ☃ 𝄞`, "  \x00\x1f\x7f\xff\xc3 \xed\xa0\x80 end"} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestKeyIsFolds: keys match exactly or under bytes.EqualFold, with the
// Kelvin sign and long s folding to k and s.
func TestKeyIsFolds(t *testing.T) {
	for _, tc := range []struct {
		key, field string
		want       bool
	}{
		{"BK", "BK", true}, {"bk", "BK", true}, {"B\u212a", "BK", true},
		{"\u017fchema", "schema", true}, {"STSGap", "stsgap", true},
		{"BKx", "BK", false}, {"B", "BK", false}, {"\u00df", "ss", false},
	} {
		if got := KeyIs([]byte(tc.key), tc.field); got != tc.want {
			t.Errorf("KeyIs(%q, %q) = %v, want %v", tc.key, tc.field, got, tc.want)
		}
	}
}
