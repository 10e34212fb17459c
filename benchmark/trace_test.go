package benchmark

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func span(start, end time.Duration) Span { return Span{Start: start, End: end} }

// TestSelfTime: a span's self time is its duration minus the union of
// its children, each clipped to the span.
func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := span(0, 100*ms)
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"disjoint", []Span{span(10*ms, 20*ms), span(30*ms, 60*ms)}, 60 * ms},
		{"overlapping count once", []Span{span(10*ms, 30*ms), span(20*ms, 50*ms)}, 60 * ms},
		{"nested", []Span{span(10*ms, 50*ms), span(20*ms, 30*ms)}, 60 * ms},
		{"clipped to the parent", []Span{span(90*ms, 120*ms)}, 90 * ms},
		{"outside the parent", []Span{span(150*ms, 160*ms)}, 100 * ms},
		{"covering the parent", []Span{span(0, 60*ms), span(40*ms, 100*ms)}, 0},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: SelfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTracer: spans keep their parent and trace ids, SelfTimes finds
// children by parent, and the Chrome export holds one event per span.
func TestTracer(t *testing.T) {
	tr := NewTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add("a/req-1", "serve.http", 0, at(0), at(10))
	tr.Add("a/req-1", "serve.wait", root, at(0), at(4))
	tr.Add("a/req-1", "serve.reply", root, at(6), at(9))
	tr.Add("b/req-1", "serve.http", 0, at(0), at(5))
	var inner int
	tr.Time("a/job", "outer", 0, func(id int) { inner = tr.Add("a/job", "inner", id, time.Now(), time.Now()) })

	if got := tr.SelfTimes("a/", "serve.http"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("SelfTimes(a/, serve.http) = %v, want [3]", got)
	}
	if n := len(tr.Find("", "serve.http")); n != 2 {
		t.Fatalf("Find(\"\", serve.http) found %d spans, want 2", n)
	}
	spans := tr.Spans()
	if outer := spans[inner-1].Parent; spans[outer-1].Name != "outer" || spans[outer-1].End < spans[outer-1].Start {
		t.Fatalf("Time recorded %+v as the parent of inner", spans[outer-1])
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.TraceEvents) != len(spans) || out.TraceEvents[1].Args["parent"] != float64(root) {
		t.Fatalf("Chrome export: %+v", out.TraceEvents)
	}
}
