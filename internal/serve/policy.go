package serve

import "time"

// SweetSpots are the batch sizes the service coalesces toward — the
// N ∈ {32, 64, 96, 128} sweet spots of the paper's evaluation, where the
// fused kernel's bn=32 blocking wastes no lanes and the per-layer tuning
// results apply directly.
func SweetSpots() []int { return []int{32, 64, 96, 128} }

// Policy is the batching and admission policy of one request queue,
// applied by the coalescer below: the one batch-cut state machine both
// the live server (serve.go) and the load generator (loadgen.go) drive.
type Policy struct {
	// MaxWait bounds how long a request may sit in its queue before the
	// coalescer gives up on filling the ideal batch: when the oldest
	// request's deadline (enqueue + MaxWait) expires, the largest fitting
	// sweet spot is dispatched instead. Default 2ms.
	MaxWait time.Duration
	// QueueCap is the admission bound per (device, layer) queue: a
	// request arriving at a full queue is rejected immediately
	// (ErrOverloaded) rather than queued into unbounded latency.
	// Default 4096.
	QueueCap int
}

func (p Policy) maxWait() time.Duration {
	if p.MaxWait <= 0 {
		return 2 * time.Millisecond
	}
	return p.MaxWait
}

func (p Policy) queueCap() int {
	if p.QueueCap <= 0 {
		return 4096
	}
	return p.QueueCap
}

// admit reports whether a new request may join a queue currently holding
// queued requests.
func (p Policy) admit(queued int) bool { return queued < p.queueCap() }

// deadline is the dispatch deadline of a request enqueued at enq.
func (p Policy) deadline(enq time.Time) time.Time { return enq.Add(p.maxWait()) }

// batchSize decides whether the coalescer should cut a batch now, given
// the queue depth and whether the oldest queued request's deadline has
// expired. The returned n is the batch size to dispatch (a sweet spot);
// when n exceeds the queue depth — only possible on deadline expiry with
// fewer than 32 queued — the batch is dispatched partially filled,
// padded with zero images up to n (the documented partial-batch
// fallback: the fused kernel requires N%32==0, so 32 is the floor).
//
//   - A full 128 dispatches immediately, deadline or not.
//   - On expiry, the largest sweet spot that the queue can fill wins;
//     below 32 the batch goes out padded to 32 rather than holding the
//     expired request any longer.
//   - Otherwise the coalescer keeps waiting.
func (p Policy) batchSize(queued int, expired bool) (n int, ok bool) {
	if queued <= 0 {
		return 0, false
	}
	spots := SweetSpots()
	max := spots[len(spots)-1]
	if queued >= max {
		return max, true
	}
	if !expired {
		return 0, false
	}
	best := spots[0] // below the smallest spot: dispatch padded
	for _, s := range spots {
		if s <= queued {
			best = s
		}
	}
	return best, true
}

// cut is one batch the coalescer decided: its requests, oldest first,
// and the sweet-spot size n >= len(items) it runs at, zero-padded.
type cut[T any] struct {
	items []T
	n     int
}

// coalescer is the batch-cut state machine of one request queue. It
// never reads a clock: the live server drives it with wall time and one
// timer, the load generator with virtual time.
type coalescer[T any] struct {
	p       Policy
	pending []entry[T] // FIFO, oldest first
}

type entry[T any] struct {
	item T
	dl   time.Time // enqueue + MaxWait
}

func newCoalescer[T any](p Policy) *coalescer[T] { return &coalescer[T]{p: p} }

// admits reports whether one more request may queue. Only the load
// generator asks; the live server's request channel is its bound.
func (c *coalescer[T]) admits() bool { return c.p.admit(len(c.pending)) }

// push queues item, enqueued at enq, and cuts a full 128 at once.
func (c *coalescer[T]) push(item T, enq time.Time) (cut[T], bool) {
	c.pending = append(c.pending, entry[T]{item: item, dl: c.p.deadline(enq)})
	n, ok := c.p.batchSize(len(c.pending), false)
	if !ok {
		return cut[T]{}, false
	}
	return c.take(n), true
}

// next cuts one batch if the oldest deadline is at or before now, and
// returns wakeAt, the instant to call it again.
func (c *coalescer[T]) next(now time.Time) (b cut[T], ok bool, wakeAt time.Time) {
	if len(c.pending) > 0 && !c.pending[0].dl.After(now) {
		n, _ := c.p.batchSize(len(c.pending), true)
		b, ok = c.take(n), true
	}
	return b, ok, c.wakeAt()
}

// wakeAt is the oldest pending deadline; zero when nothing is pending.
func (c *coalescer[T]) wakeAt() (t time.Time) {
	if len(c.pending) > 0 {
		t = c.pending[0].dl
	}
	return t
}

// drain cuts everything pending as if every deadline had expired.
func (c *coalescer[T]) drain() (cuts []cut[T]) {
	for len(c.pending) > 0 {
		n, _ := c.p.batchSize(len(c.pending), true)
		cuts = append(cuts, c.take(n))
	}
	return cuts
}

// take removes the oldest min(n, pending) requests as a batch of size n.
func (c *coalescer[T]) take(n int) cut[T] {
	k := min(n, len(c.pending))
	items := make([]T, k)
	for i := range items {
		items[i] = c.pending[i].item
	}
	clear(c.pending[:k]) // the backing array must not pin dispatched requests
	c.pending = c.pending[k:]
	return cut[T]{items: items, n: n}
}
