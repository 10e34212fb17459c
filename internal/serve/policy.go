package serve

// SweetSpots are the batch sizes the service coalesces toward — the
// N ∈ {32, 64, 96, 128} sweet spots of the paper's evaluation, where the
// fused kernel's bn=32 blocking wastes no lanes and the per-layer tuning
// results apply directly.
func SweetSpots() []int { return []int{32, 64, 96, 128} }

// queueCap is the admission bound per layer queue, applied by
// the coalescer below: a request arriving while that many wait to be cut
// is rejected immediately (ErrOverloaded) rather than queued into
// unbounded latency.
const queueCap = 4096

// batchSize is the sweet spot a cut of pending requests runs at: it
// takes min(pending, 128) of them and pads up to the next sweet spot
// with zero images (the fused kernel requires N%32==0, so 32 is the
// floor).
func batchSize(pending int) int {
	spots := SweetSpots()
	for _, s := range spots {
		if pending <= s {
			return s
		}
	}
	return spots[len(spots)-1]
}

// cut is one batch the coalescer decided: its requests, oldest first,
// and the sweet-spot size n >= len(items) it runs at, zero-padded.
type cut[T any] struct {
	items []T
	n     int
}

// coalescer is the batch-cut state machine of one device, which both the
// live server (serve.go) and the load generator (loadgen.go) drive: one
// FIFO lane per layer queue. It never reads a clock. A cut is
// asked for only when the device is free — by the server's dispatcher
// goroutine in wall time, by the load generator's device-free events in
// virtual time — so a request on an idle device leaves at once, and a
// backlog that formed behind a running batch leaves as one batch.
type coalescer[T any] struct {
	lanes [][]entry[T] // per queue, oldest first
	seq   uint64       // arrival counter: orders the lanes' heads
}

type entry[T any] struct {
	item T
	seq  uint64
}

func newCoalescer[T any](lanes int) *coalescer[T] {
	return &coalescer[T]{lanes: make([][]entry[T], lanes)}
}

// admits reports whether one more request may queue in lane.
func (c *coalescer[T]) admits(lane int) bool { return len(c.lanes[lane]) < queueCap }

// push queues item at the tail of lane.
func (c *coalescer[T]) push(lane int, item T) {
	c.lanes[lane] = append(c.lanes[lane], entry[T]{item: item, seq: c.seq})
	c.seq++
}

// cut takes the next batch from the lane whose head arrived first: its
// oldest min(pending, 128) requests, padded up to the next sweet spot.
// ok is false when nothing is pending.
func (c *coalescer[T]) cut() (lane int, b cut[T], ok bool) {
	lane = -1
	for i, l := range c.lanes {
		if len(l) > 0 && (lane < 0 || l[0].seq < c.lanes[lane][0].seq) {
			lane = i
		}
	}
	if lane < 0 {
		return lane, b, false
	}
	pending := c.lanes[lane]
	b.n = batchSize(len(pending))
	b.items = make([]T, min(b.n, len(pending)))
	for i := range b.items {
		b.items[i] = pending[i].item
	}
	clear(pending[:len(b.items)]) // the backing array must not pin dispatched requests
	c.lanes[lane] = pending[len(b.items):]
	return lane, b, true
}
