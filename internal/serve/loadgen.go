package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/par"
	"repro/internal/tensor"
)

// The load generator is a discrete-event simulation in virtual time, not
// a wall-clock harness: it drives the live server's coalescer, with a
// wake slot per queue standing in for the server's timer, through a
// deterministic arrival stream, models each device as the serial
// executor a GPU is (one batch at a time, FIFO), and takes each batch's
// service time from the selector's predicted seconds — so the report
// (latency percentiles, batch-size occupancy, algorithm selection) is a
// pure function of (seed, config) and byte-identical across runs and
// across -jobs counts. Real execution is not skipped: every ExecEvery-th
// dispatched batch is additionally run for real through the Executor
// with deterministic request images, and its output checksum lands in
// the report (these sampled runs fan out across Jobs workers; their
// results recombine in dispatch order, preserving determinism).
//
// The arrival stream is phased so every sweet spot appears: a burst
// phase floods one queue far faster than service (full 128-batches cut
// immediately, and the in-flight high-water mark climbs past the
// thousand-request criterion), then three paced phases whose mean
// arrival rate holds the queue depth at deadline expiry inside the
// [96,128), [64,96) and [32,64) windows. Stream tails below 32 go out
// as padded partial batches — the deadline fallback.

// LoadConfig configures one load-generation run.
type LoadConfig struct {
	Seed     uint64
	Requests int          // total arrivals across all phases (default 4000)
	Devices  []gpu.Device // default RTX2070
	Model    *Model       // default DemoModel(Seed)
	Policy   Policy
	Selector Selector // default cold NewTuneSelector(4)
	Exec     Executor // runs the sampled batches; default ForwardExecutor
	// ExecEvery really executes every k-th dispatched batch (default 23;
	// < 0 disables sampling).
	ExecEvery int
	// Jobs parallelizes the sampled real executions (default 1). The
	// report bytes are identical for every value.
	Jobs int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 4000
	}
	if len(c.Devices) == 0 {
		c.Devices = []gpu.Device{gpu.RTX2070()}
	}
	if c.Model == nil {
		c.Model = DemoModel(c.Seed)
	}
	if c.Selector == nil {
		c.Selector = NewTuneSelector(4)
	}
	if c.Exec == nil {
		c.Exec = ForwardExecutor{}
	}
	if c.ExecEvery == 0 {
		c.ExecEvery = 23
	}
	if c.Jobs <= 0 {
		c.Jobs = 1
	}
	return c
}

// Report is the load generator's result.
type Report struct {
	Tables      []*bench.Table
	Total       int // arrivals
	Accepted    int
	Rejected    int
	MaxInFlight int         // peak accepted-but-uncompleted requests
	Batches     map[int]int // dispatched batches per batch size
	PaddedSlots int         // zero-padded slots across all batches
	Sampled     int         // batches really executed
}

// Format renders every table as plain text.
func (r *Report) Format() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.Format())
		b.WriteString("\n")
	}
	return b.String()
}

// Markdown renders every table as GitHub-flavoured markdown.
func (r *Report) Markdown() string {
	var b strings.Builder
	for _, t := range r.Tables {
		b.WriteString(t.Markdown())
		b.WriteString("\n")
	}
	return b.String()
}

// arrival is one virtual-time request arrival bound for queue qi.
type arrival struct {
	t  int64 // virtual nanos
	qi int
}

// simQueue is the DES twin of a server queue: the same coalescer, driven
// in virtual time, plus the queue's one wake slot — its next expiry
// check, at virtual time wakeT (never while the queue is empty), with
// wakeSeq, the global arming order, breaking ties between queues.
type simQueue struct {
	dev            int // index into cfg.Devices
	spec           LayerSpec
	flt            *tensor.Tensor
	co             *coalescer[int64] // items are arrival instants, virtual nanos
	wakeT, wakeSeq int64
	accepted       int
	rejected       int
	lats           []int64 // per completed request: done - arrive, in cut order
}

const never = math.MaxInt64 // the wake time of an empty queue

// simBatch is one dispatched batch on the virtual timeline.
type simBatch struct {
	qi, batchN, filled int
	done               int64
	algo               string
	source             string
}

// Generate runs the load simulation and builds the report.
func Generate(cfg LoadConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	maxWaitN := cfg.Policy.maxWait().Nanoseconds()

	// One simulated queue per (device, layer), in deterministic order.
	var queues []*simQueue
	for d := range cfg.Devices {
		for _, name := range cfg.Model.LayerNames() {
			spec, flt, _ := cfg.Model.Layer(name)
			queues = append(queues, &simQueue{dev: d, spec: spec, flt: flt,
				co: newCoalescer[int64](cfg.Policy), wakeT: never})
		}
	}
	if len(queues) == 0 {
		return nil, fmt.Errorf("serve: load model has no layers")
	}

	arrivals := genArrivals(cfg, maxWaitN, len(queues))

	// --- the event loop: arrivals merged with the queues' wake-ups ---
	devBusy := make([]int64, len(cfg.Devices))
	var batches []simBatch
	var intervals [][2]int64 // (arrive, done) per accepted request
	var seq int64
	// arm moves q's wake slot to its oldest deadline, no earlier than now.
	arm := func(q *simQueue, now int64) {
		q.wakeT, q.wakeSeq = never, seq
		if at := q.co.wakeAt(); !at.IsZero() {
			q.wakeT = max(at.UnixNano(), now)
		}
		seq++
	}
	// run serves a cut on its device, FIFO, for the predicted seconds.
	run := func(qi int, b cut[int64], now int64) error {
		q := queues[qi]
		ch, err := cfg.Selector.Choose(cfg.Devices[q.dev], q.spec.Problem(b.n))
		if err != nil {
			return err
		}
		done := max(now, devBusy[q.dev]) + max(int64(ch.Seconds*1e9), 1)
		devBusy[q.dev] = done
		for _, arrive := range b.items {
			q.lats = append(q.lats, done-arrive)
			intervals = append(intervals, [2]int64{arrive, done})
		}
		batches = append(batches, simBatch{
			qi: qi, batchN: b.n, filled: len(b.items), done: done,
			algo: string(ch.Algo), source: ch.Source,
		})
		return nil
	}

	ai := 0
	for {
		w := 0 // the earliest wake slot in (t, seq) order
		for qi, q := range queues {
			if q.wakeT < queues[w].wakeT || q.wakeT == queues[w].wakeT && q.wakeSeq < queues[w].wakeSeq {
				w = qi
			}
		}
		// Arrivals first: a request arriving at a deadline instant joins
		// the batch that deadline cuts.
		if ai < len(arrivals) && arrivals[ai].t <= queues[w].wakeT {
			a := arrivals[ai]
			ai++
			q := queues[a.qi]
			if !q.co.admits() {
				q.rejected++
				continue
			}
			q.accepted++
			b, full := q.co.push(a.t, time.Unix(0, a.t))
			if full {
				if err := run(a.qi, b, a.t); err != nil {
					return nil, err
				}
			}
			if full || q.wakeT == never {
				arm(q, a.t) // a new oldest request, a new expiry
			}
			continue
		}
		q := queues[w]
		now := q.wakeT
		if now == never {
			break
		}
		if b, ok, _ := q.co.next(time.Unix(0, now)); ok {
			if err := run(w, b, now); err != nil {
				return nil, err
			}
		}
		arm(q, now)
	}

	return buildReport(cfg, queues, batches, intervals)
}

// genArrivals builds the phased deterministic arrival stream. Gaps are
// uniform in [g/2, 3g/2) from the repo's splitmix RNG — no
// transcendentals, per the byte-determinism contract.
func genArrivals(cfg LoadConfig, maxWaitN int64, nqueues int) []arrival {
	rng := tensor.NewRNG(cfg.Seed*0x9e3779b97f4a7c15 + 1)
	// Per-phase mean queue depth at deadline expiry (the burst phase
	// outruns service entirely, cutting full 128s on arrival).
	type phase struct {
		share int   // fraction denominator parts of the request budget
		gap   int64 // mean inter-arrival nanos
	}
	phases := []phase{
		{share: 2, gap: maxWaitN / 1000000}, // burst -> 128s + in-flight peak
		{share: 1, gap: maxWaitN / 110},     // expiry depth ~110 -> 96s
		{share: 1, gap: maxWaitN / 78},      // expiry depth ~78  -> 64s
		{share: 1, gap: maxWaitN / 45},      // expiry depth ~45  -> 32s
	}
	parts := 0
	for _, p := range phases {
		parts += p.share
	}
	var arrivals []arrival
	now := int64(0)
	left := cfg.Requests
	for pi, p := range phases {
		n := cfg.Requests * p.share / parts
		if pi == len(phases)-1 {
			n = left
		}
		left -= n
		g := p.gap
		if g < 1 {
			g = 1
		}
		qi := pi % nqueues
		for i := 0; i < n; i++ {
			now += g/2 + int64(rng.Uint64()%uint64(g))
			arrivals = append(arrivals, arrival{t: now, qi: qi})
		}
		// Idle long enough for the queue to flush by deadline before the
		// next phase retargets (devices may still be draining backlog).
		now += 4 * maxWaitN
	}
	return arrivals
}

// buildReport turns the simulation record into the deterministic tables.
func buildReport(cfg LoadConfig, queues []*simQueue, batches []simBatch, intervals [][2]int64) (*Report, error) {
	rep := &Report{Batches: map[int]int{}}

	// Peak in-flight: +1 at arrival, -1 at completion, completions first
	// on ties (the conservative, deterministic order).
	type ev struct {
		t int64
		d int
	}
	evs := make([]ev, 0, 2*len(intervals))
	for _, iv := range intervals {
		evs = append(evs, ev{iv[0], +1}, ev{iv[1], -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	cur := 0
	for _, e := range evs {
		cur += e.d
		if cur > rep.MaxInFlight {
			rep.MaxInFlight = cur
		}
	}

	us := func(ns int64) string { return fmt.Sprintf("%.1f", float64(ns)/1e3) }
	pct := func(sorted []int64, p int) int64 {
		if len(sorted) == 0 {
			return 0
		}
		return sorted[p*(len(sorted)-1)/100]
	}

	lat := &bench.Table{ID: "serve-latency", Title: "request latency per (device, layer) under phased load",
		Header: []string{"device", "layer", "requests", "rejected", "p50 us", "p95 us", "p99 us", "max us"}}
	for _, q := range queues {
		rep.Total += q.accepted + q.rejected
		rep.Accepted += q.accepted
		rep.Rejected += q.rejected
		s := append([]int64(nil), q.lats...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		mx := int64(0)
		if len(s) > 0 {
			mx = s[len(s)-1]
		}
		lat.AddRow(cfg.Devices[q.dev].Name, q.spec.Name,
			fmt.Sprint(q.accepted), fmt.Sprint(q.rejected),
			us(pct(s, 50)), us(pct(s, 95)), us(pct(s, 99)), us(mx))
	}

	// Occupancy per (queue, batchN), plus selection provenance.
	type occKey struct {
		qi, n int
	}
	occCount := map[occKey]int{}
	occFill := map[occKey]int{}
	occAlgo := map[occKey]string{}
	occSrc := map[occKey]string{}
	for _, b := range batches {
		k := occKey{b.qi, b.batchN}
		occCount[k]++
		occFill[k] += b.filled
		occAlgo[k] = b.algo
		occSrc[k] = b.source
		rep.Batches[b.batchN]++
		rep.PaddedSlots += b.batchN - b.filled
	}
	keys := make([]occKey, 0, len(occCount))
	for k := range occCount {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].qi != keys[j].qi {
			return keys[i].qi < keys[j].qi
		}
		return keys[i].n < keys[j].n
	})
	occ := &bench.Table{ID: "serve-batches", Title: "batch-size occupancy (deadline-coalesced dispatches)",
		Header: []string{"device", "layer", "batch N", "batches", "requests", "fill %", "algo", "source"}}
	for _, k := range keys {
		q := queues[k.qi]
		fill := 100 * float64(occFill[k]) / float64(occCount[k]*k.n)
		occ.AddRow(cfg.Devices[q.dev].Name, q.spec.Name, fmt.Sprint(k.n),
			fmt.Sprint(occCount[k]), fmt.Sprint(occFill[k]),
			fmt.Sprintf("%.1f", fill), occAlgo[k], occSrc[k])
	}
	occ.Note("%d zero-padded slots across %d batches; slots below the N=32 kernel floor pad up (partial-batch fallback)",
		rep.PaddedSlots, len(batches))

	// Sampled real executions: every ExecEvery-th dispatched batch runs
	// through the Executor with per-slot deterministic images. Fan out
	// across Jobs workers, recombine in dispatch order.
	exe := &bench.Table{ID: "serve-exec", Title: "sampled real batch executions (cudart.Forward)",
		Header: []string{"batch", "device", "layer", "batch N", "filled", "algo", "output checksum"}}
	var sampled []int
	if cfg.ExecEvery > 0 {
		for i := range batches {
			if i%cfg.ExecEvery == 0 {
				sampled = append(sampled, i)
			}
		}
	}
	sums := make([]float64, len(sampled))
	err := par.ForErr(len(sampled), cfg.Jobs, func(si int) error {
		b := batches[sampled[si]]
		q := queues[b.qi]
		images := make([][]float32, b.filled)
		for s := range images {
			img := make([]float32, q.spec.InLen())
			r := tensor.NewRNG(cfg.Seed + uint64(sampled[si])*1000003 + uint64(s)*7919 + 17)
			for j := range img {
				img[j] = r.Float32() - 0.5
			}
			images[s] = img
		}
		ch, err := cfg.Selector.Choose(cfg.Devices[q.dev], q.spec.Problem(b.batchN))
		if err != nil {
			return err
		}
		out, err := cfg.Exec.Run(q.spec, q.flt, ch, images, b.batchN)
		if err != nil {
			return fmt.Errorf("serve: sampled batch %d (%s/%s N=%d): %w",
				sampled[si], cfg.Devices[q.dev].Name, q.spec.Name, b.batchN, err)
		}
		sum := 0.0
		for _, v := range out.Data {
			sum += float64(v)
		}
		sums[si] = sum
		return nil
	})
	if err != nil {
		return nil, err
	}
	for si, bi := range sampled {
		b := batches[bi]
		q := queues[b.qi]
		exe.AddRow(fmt.Sprint(bi), cfg.Devices[q.dev].Name, q.spec.Name,
			fmt.Sprint(b.batchN), fmt.Sprint(b.filled), b.algo, fmt.Sprintf("%.6e", sums[si]))
	}
	rep.Sampled = len(sampled)

	lat.Note("%d arrivals (%d accepted, %d rejected); peak in-flight %d; %d batches dispatched, %d executed for real",
		rep.Total, rep.Accepted, rep.Rejected, rep.MaxInFlight, len(batches), rep.Sampled)
	rep.Tables = []*bench.Table{lat, occ, exe}
	return rep, nil
}
