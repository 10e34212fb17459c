package benchmark

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// (or of one batch, which serves many requests) share a Trace id; Parent
// names the span that caused this one (0 for a root).
type Span struct {
	ID     int
	Parent int
	Trace  string
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

// Dur is the span's wall duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the pass ends; WriteChrome writes
// them once. Safe for concurrent use.
type Tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []Span
}

// NewTracer starts a tracer whose span times count from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Add records a finished span and returns its id (ids start at 1).
func (t *Tracer) Add(trace, name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
	return id
}

// Time runs fn inside a new span, passing it the span's id so that fn
// can open child spans.
func (t *Tracer) Time(trace, name string, parent int, fn func(id int)) {
	id := t.Add(trace, name, parent, time.Now(), time.Now())
	fn(id)
	end := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span in recording order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Find returns the spans called name whose trace id starts with prefix.
func (t *Tracer) Find(prefix, name string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Name == name && strings.HasPrefix(s.Trace, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns, in milliseconds, the self time of every span Find
// returns: its duration minus the part its children cover.
func (t *Tracer) SelfTimes(prefix, name string) []float64 {
	children := map[int][]Span{}
	for _, s := range t.Spans() {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var ms []float64
	for _, s := range t.Find(prefix, name) {
		ms = append(ms, millis(SelfTime(s, children[s.ID])))
	}
	return ms
}

// SelfTime is s's duration minus the union of its children's intervals,
// each clipped to s. Overlapping children count once.
func SelfTime(s Span, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return s.Dur() - covered
}

// WriteChrome writes every span as a Chrome trace-event "complete"
// event, one thread lane per trace id, loadable in chrome://tracing or
// Perfetto.
func (t *Tracer) WriteChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	lanes := map[string]int{}
	var events []event
	for _, s := range t.Spans() {
		lane, ok := lanes[s.Trace]
		if !ok {
			lane = len(lanes) + 1
			lanes[s.Trace] = lane
		}
		events = append(events, event{Name: s.Name, Cat: s.Trace, Ph: "X",
			Ts: micros(s.Start), Dur: micros(s.Dur()), Pid: 1, Tid: lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "trace": s.Trace}})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
