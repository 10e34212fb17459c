package serve

import (
	"testing"
	"time"
)

// TestPolicyBatchSize pins the coalescing decision table: full 128s cut
// immediately, expiry cuts the largest fitting sweet spot, sub-32
// expiries pad up to the kernel's batch floor, and nothing dispatches
// early without an expired deadline.
func TestPolicyBatchSize(t *testing.T) {
	p := Policy{}
	cases := []struct {
		queued  int
		expired bool
		n       int
		ok      bool
	}{
		{0, false, 0, false},
		{0, true, 0, false},
		{1, false, 0, false},
		{31, false, 0, false},
		{127, false, 0, false},
		{128, false, 128, true},
		{300, false, 128, true},
		{1, true, 32, true}, // padded partial batch
		{31, true, 32, true},
		{32, true, 32, true},
		{63, true, 32, true},
		{64, true, 64, true},
		{95, true, 64, true},
		{96, true, 96, true},
		{127, true, 96, true},
		{128, true, 128, true},
	}
	for _, c := range cases {
		n, ok := p.batchSize(c.queued, c.expired)
		if n != c.n || ok != c.ok {
			t.Errorf("batchSize(%d, %v) = (%d, %v), want (%d, %v)", c.queued, c.expired, n, ok, c.n, c.ok)
		}
	}
}

// TestPolicyDefaults: zero values get the documented defaults, explicit
// values win.
func TestPolicyDefaults(t *testing.T) {
	p := Policy{}
	if got := p.maxWait(); got != 2*time.Millisecond {
		t.Errorf("default MaxWait = %v", got)
	}
	if !p.admit(4095) || p.admit(4096) {
		t.Error("default QueueCap is not 4096")
	}
	p = Policy{MaxWait: time.Second, QueueCap: 2}
	enq := time.Unix(100, 0)
	if got := p.deadline(enq); got != enq.Add(time.Second) {
		t.Errorf("deadline = %v", got)
	}
	if !p.admit(1) || p.admit(2) {
		t.Error("explicit QueueCap ignored")
	}
}

// TestCoalescer drives the batch-cut state machine on a virtual clock,
// checking each cut's size, its real occupancy, and that requests leave
// in arrival order.
func TestCoalescer(t *testing.T) {
	const wait = 2 * time.Millisecond
	const empty = -1 // wakeAt is the zero Time: nothing pending
	t0 := time.Unix(1000, 0)
	type step struct {
		push  int           // queue this many requests at `at`; 0 calls next(at)
		drain bool          // call drain instead
		at    time.Duration // virtual instant, relative to t0
		cuts  [][2]int      // expected (batch n, filled) per cut, in order
		wake  time.Duration // next: expected wakeAt relative to t0, or empty
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"the 128th push cuts with no wait", []step{
			{push: 127},
			{push: 1, cuts: [][2]int{{128, 128}}},
			{wake: empty},
		}},
		{"wakeAt is the oldest enqueue plus MaxWait", []step{
			{push: 1, at: 0},
			{push: 1, at: wait / 4},
			{at: wait / 2, wake: wait},
			{at: wait - 1, wake: wait},
			{at: wait, cuts: [][2]int{{32, 2}}, wake: empty},
		}},
		{"a push at the deadline instant joins the expiry cut", []step{
			{push: 1, at: 0},
			{push: 1, at: wait},
			{at: wait, cuts: [][2]int{{32, 2}}, wake: empty},
		}},
		{"two expired cuts back to back at one instant", []step{
			{push: 70, at: 0},
			{push: 30, at: wait / 2},
			{at: 2 * wait, cuts: [][2]int{{96, 96}}, wake: wait + wait/2},
			{at: 2 * wait, cuts: [][2]int{{32, 4}}, wake: empty},
		}},
		{"drain 1", []step{
			{push: 1},
			{drain: true, cuts: [][2]int{{32, 1}}},
			{at: time.Hour, wake: empty},
		}},
		{"drain 33", []step{
			{push: 33},
			{drain: true, cuts: [][2]int{{32, 32}, {32, 1}}},
			{at: time.Hour, wake: empty},
		}},
		{"drain 100", []step{
			{push: 100},
			{drain: true, cuts: [][2]int{{96, 96}, {32, 4}}},
			{at: time.Hour, wake: empty},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCoalescer[int](Policy{MaxWait: wait})
			pushed, left := 0, 0 // requests queued so far; the next to leave
			for si, s := range tc.steps {
				var got []cut[int]
				switch {
				case s.drain:
					got = c.drain()
				case s.push > 0:
					for i := 0; i < s.push; i++ {
						if b, ok := c.push(pushed, t0.Add(s.at)); ok {
							got = append(got, b)
						}
						pushed++
					}
				default:
					b, ok, wakeAt := c.next(t0.Add(s.at))
					if ok {
						got = append(got, b)
					}
					want := time.Time{}
					if s.wake != empty {
						want = t0.Add(s.wake)
					}
					if !wakeAt.Equal(want) {
						t.Errorf("step %d: wakeAt %v, want %v", si, wakeAt, want)
					}
				}
				if len(got) != len(s.cuts) {
					t.Fatalf("step %d: %d cuts, want %d", si, len(got), len(s.cuts))
				}
				for i, b := range got {
					if b.n != s.cuts[i][0] || len(b.items) != s.cuts[i][1] {
						t.Errorf("step %d cut %d: batch %d holding %d, want %d holding %d",
							si, i, b.n, len(b.items), s.cuts[i][0], s.cuts[i][1])
					}
					for _, id := range b.items {
						if id != left {
							t.Fatalf("step %d cut %d: request %d left out of order (want %d)", si, i, id, left)
						}
						left++
					}
				}
			}
		})
	}
}

// TestSweetSpotsPinned: the batching targets are the paper's evaluated
// batch sizes, ascending.
func TestSweetSpotsPinned(t *testing.T) {
	got := SweetSpots()
	want := []int{32, 64, 96, 128}
	if len(got) != len(want) {
		t.Fatalf("SweetSpots() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SweetSpots() = %v, want %v", got, want)
		}
	}
}
