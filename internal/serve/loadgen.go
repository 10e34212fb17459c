package serve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/par"
	"repro/internal/tensor"
)

// The load generator is a discrete-event simulation in virtual time, not
// a wall-clock harness: it drives the live server's coalescer through a
// deterministic arrival stream, with a device-free event standing in for
// the dispatcher finishing a batch, models the device as the serial
// executor a GPU is (one batch at a time), and takes each batch's
// service time from the selector's predicted seconds — so the report
// (latency percentiles, batch-size occupancy, algorithm selection) is a
// pure function of (seed, config) and byte-identical across runs and
// across -jobs counts. Real execution is not skipped: every ExecEvery-th
// dispatched batch is additionally run for real through the model's
// Executor with deterministic request images, and its output checksum
// lands in the report (these sampled runs fan out across Jobs workers;
// their results recombine in dispatch order, preserving determinism).
//
// The arrival stream is phased so every sweet spot appears: a burst
// phase floods one queue far faster than service (the backlog leaves in
// full 128s, and the in-flight high-water mark climbs past the
// thousand-request criterion), then three paced phases of clumps of
// 1 + k requests, k = 96, 64 and 32. A clump's head finds the device
// idle and rides alone in a padded 32; the k behind it arrive while the
// head runs and leave together as a full k.

// LoadConfig configures one load-generation run, which serves
// DemoModel(Seed).
type LoadConfig struct {
	Seed     uint64
	Requests int        // total arrivals across all phases (default 4000)
	Device   gpu.Device // default (the zero value) RTX2070
	Selector Selector   // default cold NewTuneSelector(4)
	// ExecEvery really executes every k-th dispatched batch on the
	// model's Executor (default 23; < 0 disables sampling).
	ExecEvery int
	// Jobs parallelizes the sampled real executions (default 1). The
	// report bytes are identical for every value.
	Jobs int
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Requests <= 0 {
		c.Requests = 4000
	}
	if c.Device.Name == "" {
		c.Device = gpu.RTX2070()
	}
	if c.Selector == nil {
		c.Selector = NewTuneSelector(4)
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

// simQueue is the DES twin of a server queue (its index is its lane of
// the coalescer), plus its accounting.
type simQueue struct {
	spec     LayerSpec
	accepted int
	rejected int
	lats     []int64 // per completed request: done - arrive, in cut order
}

// simBatch is one dispatched batch on the virtual timeline.
type simBatch struct {
	qi, batchN, filled int
	algo               string
	source             string
}

// Generate runs the load simulation and builds the report.
func Generate(cfg LoadConfig) (*Report, error) {
	model := DemoModel(cfg.Seed)
	cfg = cfg.withDefaults()

	// One simulated queue per layer, in the server's lane order.
	var queues []*simQueue
	for _, name := range model.LayerNames() {
		queues = append(queues, &simQueue{spec: model.layers[name].spec})
	}

	arrivals := genArrivals(cfg.Seed, cfg.Requests, len(queues))

	// --- the event loop: arrivals merged with the device-free event ---
	// The server's coalescer, driven in virtual time; its items are
	// arrival instants, virtual nanos. While a batch runs, the device
	// is busy until free.
	co := newCoalescer[int64](len(queues))
	busy, free := false, int64(0)
	var batches []simBatch
	var intervals [][2]int64 // (arrive, done) per accepted request
	// pull is the dispatcher, free at now: it cuts the next batch, if
	// any is pending, and runs it for the predicted seconds.
	pull := func(now int64) error {
		qi, b, ok := co.cut()
		if busy = ok; !ok {
			return nil
		}
		q := queues[qi]
		ch, err := cfg.Selector.Choose(cfg.Device, q.spec.Problem(b.n))
		if err != nil {
			return err
		}
		free = now + max(int64(ch.Seconds*1e9), 1)
		for _, arrive := range b.items {
			q.lats = append(q.lats, free-arrive)
			intervals = append(intervals, [2]int64{arrive, free})
		}
		batches = append(batches, simBatch{
			qi: qi, batchN: b.n, filled: len(b.items),
			algo: string(ch.Algo), source: ch.Source,
		})
		return nil
	}

	for _, a := range arrivals {
		// Device-free events strictly before the arrival come first: a
		// request arriving as the device frees joins the cut.
		for busy && free < a.t {
			if err := pull(free); err != nil {
				return nil, err
			}
		}
		q := queues[a.qi]
		if !co.admits(a.qi) {
			q.rejected++
			continue
		}
		q.accepted++
		co.push(a.qi, a.t)
		if !busy {
			if err := pull(a.t); err != nil {
				return nil, err
			}
		}
	}
	for busy {
		if err := pull(free); err != nil {
			return nil, err
		}
	}

	return buildReport(cfg, model.Executor(), queues, batches, intervals)
}

// The arrival stream's spacing, in virtual nanos: mean gaps, jittered
// as below. A burst outruns service at once, and a clump's k requests
// land within its head's batch time (0.6–2.5 µs per batch on the demo
// model). Clump heads are spaced far wider than a clump's service time,
// so each clump finds the device idle, and the phase gap lets the
// burst's backlog drain before the next phase.
const (
	trainGap = 4       // inside a burst or a clump
	clumpGap = 20_000  // before a clump head
	phaseGap = 200_000 // between phases, not jittered
)

// genArrivals builds the phased deterministic arrival stream. Gaps are
// uniform in [g/2, 3g/2) from the repo's splitmix RNG — no
// transcendentals, per the byte-determinism contract.
func genArrivals(seed uint64, requests, nqueues int) []arrival {
	rng := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	// Each phase is a train of clumps of 1 + k requests; the burst is
	// one unbroken train.
	type phase struct {
		share int // fraction denominator parts of the request budget
		k     int // requests behind each clump head; 0 for the burst
	}
	phases := []phase{
		{share: 2},        // burst -> 128s + in-flight peak
		{share: 1, k: 96}, // 1/32 + 96/96 per clump
		{share: 1, k: 64}, // 1/32 + 64/64
		{share: 1, k: 32}, // 1/32 + 32/32
	}
	parts := 0
	for _, p := range phases {
		parts += p.share
	}
	var arrivals []arrival
	now := int64(0)
	left := requests
	for pi, p := range phases {
		n := requests * p.share / parts
		if pi == len(phases)-1 {
			n = left
		}
		left -= n
		qi := pi % nqueues
		for i := 0; i < n; i++ {
			g := int64(trainGap)
			if p.k > 0 && i > 0 && i%(p.k+1) == 0 {
				g = clumpGap
			}
			now += g/2 + int64(rng.Uint64()%uint64(g))
			arrivals = append(arrivals, arrival{t: now, qi: qi})
		}
		now += phaseGap
	}
	return arrivals
}

// buildReport turns the simulation record into the deterministic tables,
// running the sampled batches on exec.
func buildReport(cfg LoadConfig, exec Executor, queues []*simQueue, batches []simBatch, intervals [][2]int64) (*Report, error) {
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

	us := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e3) }
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
		lat.AddRow(cfg.Device.Name, q.spec.Name,
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
	occ := &bench.Table{ID: "serve-batches", Title: "batch-size occupancy (coalesced dispatches)",
		Header: []string{"device", "layer", "batch N", "batches", "requests", "fill %", "algo", "source"}}
	for _, k := range keys {
		q := queues[k.qi]
		fill := 100 * float64(occFill[k]) / float64(occCount[k]*k.n)
		occ.AddRow(cfg.Device.Name, q.spec.Name, fmt.Sprint(k.n),
			fmt.Sprint(occCount[k]), fmt.Sprint(occFill[k]),
			fmt.Sprintf("%.1f", fill), occAlgo[k], occSrc[k])
	}
	occ.Note("%d zero-padded slots across %d batches; cuts pad up to the next sweet spot",
		rep.PaddedSlots, len(batches))

	// Sampled real executions: every ExecEvery-th dispatched batch runs
	// through the model's Executor with per-slot deterministic images. Fan out
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
		ch, err := cfg.Selector.Choose(cfg.Device, q.spec.Problem(b.batchN))
		if err != nil {
			return err
		}
		out, err := exec.Run(q.spec, nil, ch, images, b.batchN) // the model's executor reads its own filter
		if err != nil {
			return fmt.Errorf("serve: sampled batch %d (%s/%s N=%d): %w",
				sampled[si], cfg.Device.Name, q.spec.Name, b.batchN, err)
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
		exe.AddRow(fmt.Sprint(bi), cfg.Device.Name, q.spec.Name,
			fmt.Sprint(b.batchN), fmt.Sprint(b.filled), b.algo, fmt.Sprintf("%.6e", sums[si]))
	}
	rep.Sampled = len(sampled)

	lat.Note("%d arrivals (%d accepted, %d rejected); peak in-flight %d; %d batches dispatched, %d executed for real",
		rep.Total, rep.Accepted, rep.Rejected, rep.MaxInFlight, len(batches), rep.Sampled)
	rep.Tables = []*bench.Table{lat, occ, exe}
	return rep, nil
}
