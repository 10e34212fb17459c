package serve

import "testing"

// TestPolicyBatchSize pins the pad-up rule: a cut takes at most 128
// requests and runs at the next sweet spot up, so nothing below the
// kernel's 32-image floor waits for company.
func TestPolicyBatchSize(t *testing.T) {
	for _, c := range []struct{ pending, n int }{
		{1, 32}, {31, 32}, {32, 32},
		{33, 64}, {63, 64}, {64, 64},
		{65, 96}, {96, 96},
		{97, 128}, {127, 128}, {128, 128}, {300, 128},
	} {
		if n := batchSize(c.pending); n != c.n {
			t.Errorf("batchSize(%d) = %d, want %d", c.pending, n, c.n)
		}
	}
}

// TestPolicyDefaults: a lane admits while it holds fewer than the
// documented 4096 requests and refuses the next.
func TestPolicyDefaults(t *testing.T) {
	c := newCoalescer[int](1)
	for i := 0; i < 4096; i++ {
		if !c.admits(0) {
			t.Fatalf("lane holding %d of 4096 refused", i)
		}
		c.push(0, i)
	}
	if c.admits(0) {
		t.Error("lane holding 4096 admitted one more")
	}
}

// TestCoalescer drives the batch-cut state machine the way a device's
// dispatcher does: queue requests on lanes, then cut until nothing is
// pending. It checks each cut's lane, size and real occupancy, and that
// requests leave in arrival order within their lane.
func TestCoalescer(t *testing.T) {
	type want struct{ lane, n, filled int }
	for _, tc := range []struct {
		name   string
		pushes []int // lane of each request, in arrival order
		cuts   []want
	}{
		{"drain 1", lanes(1, 0), []want{{0, 32, 1}}},
		{"drain 33", lanes(33, 0), []want{{0, 64, 33}}},
		{"drain 100", lanes(100, 0), []want{{0, 128, 100}}},
		{"pad up to 96", lanes(70, 0), []want{{0, 96, 70}}},
		{"128 leaves whole", lanes(128, 0), []want{{0, 128, 128}}},
		{"300 pending leave as 128 then 128 then 44", lanes(300, 0),
			[]want{{0, 128, 128}, {0, 128, 128}, {0, 64, 44}}},
		{"oldest head first across lanes",
			append(append(lanes(2, 1), lanes(3, 0)...), lanes(1, 1)...),
			[]want{{1, 32, 3}, {0, 32, 3}}},
		{"a long lane waits for an older head",
			append(append(lanes(1, 0), lanes(200, 1)...), lanes(5, 0)...),
			[]want{{0, 32, 6}, {1, 128, 128}, {1, 96, 72}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCoalescer[int](2)
			var next [2][]int // per lane: request ids still to leave, in order
			for id, lane := range tc.pushes {
				c.push(lane, id)
				next[lane] = append(next[lane], id)
			}
			for i, w := range tc.cuts {
				lane, b, ok := c.cut()
				if !ok {
					t.Fatalf("cut %d: nothing pending, want %+v", i, w)
				}
				if lane != w.lane || b.n != w.n || len(b.items) != w.filled {
					t.Fatalf("cut %d: lane %d batch %d holding %d, want lane %d batch %d holding %d",
						i, lane, b.n, len(b.items), w.lane, w.n, w.filled)
				}
				for _, id := range b.items {
					if id != next[lane][0] {
						t.Fatalf("cut %d: request %d left out of order (want %d)", i, id, next[lane][0])
					}
					next[lane] = next[lane][1:]
				}
			}
			if lane, b, ok := c.cut(); ok {
				t.Fatalf("extra cut: lane %d batch %d holding %d", lane, b.n, len(b.items))
			}
		})
	}
}

// lanes returns n pushes onto lane.
func lanes(n, lane int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = lane
	}
	return s
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
