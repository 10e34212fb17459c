package benchmark

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/conv"
	"repro/internal/cudart"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// serveShares is the layer mix of both serve workloads: 60% of requests
// call conv_a, 40% conv_b (serve.DemoModel's layers in sorted order).
var serveShares = []float64{0.6, 0.4}

// checkEvery is how often an untraced phase compares a reply with
// conv.Direct; a traced phase checks every reply of every traced batch.
const checkEvery = 16

// serveRig is one serve workload's fixed inputs: the demo model served
// on RTX2070 with the default serve.Config, as `winograd-bench serve
// -listen` runs it. tr is nil for untraced runs, which then use the
// server's own default Selector and Executor.
type serveRig struct {
	model  *serve.Model
	device string
	names  []string
	specs  []serve.LayerSpec
	tr     *Tracer
	exec   *tracedExec // non-nil when traced
}

func newServeRig(tr *Tracer) *serveRig {
	r := &serveRig{model: serve.DemoModel(1), device: gpu.RTX2070().Name, tr: tr}
	r.names = r.model.LayerNames()
	for _, n := range r.names {
		spec, _, _ := r.model.Layer(n)
		r.specs = append(r.specs, spec)
	}
	return r
}

func (r *serveRig) inLens() []int {
	lens := make([]int, len(r.specs))
	for i, s := range r.specs {
		lens[i] = s.InLen()
	}
	return lens
}

// config is the server configuration: defaults, except that a traced
// rig injects wrappers that time the selector and split the executor
// into serve.AssembleBatch and cudart.Forward — exactly what
// serve.ForwardExecutor.Run does.
func (r *serveRig) config() serve.Config {
	cfg := serve.Config{Model: r.model}
	if r.tr != nil {
		sel := &tracedSelector{inner: serve.NewTuneSelector(4)}
		r.exec = &tracedExec{tr: r.tr, sel: sel, owner: map[string]int{}}
		cfg.Selector, cfg.Exec = sel, r.exec
	}
	return cfg
}

// start is the serve set-up: a new server, then one warm-up batch at
// each sweet spot per layer, each submitted at once so the coalescer
// cuts it whole. It returns once every warm-up request has replied.
func (r *serveRig) start() (*serve.Server, time.Duration, error) {
	t0 := time.Now()
	srv, err := serve.NewServer(r.config())
	if err != nil {
		return nil, 0, err
	}
	for _, n := range serve.SweetSpots() {
		for li, name := range r.names {
			img := make([]float32, r.specs[li].InLen())
			chans := make([]<-chan serve.Response, n)
			for i := range chans {
				if chans[i], err = srv.Submit(&serve.Request{Device: r.device, Layer: name, Image: img}); err != nil {
					srv.Close()
					return nil, 0, fmt.Errorf("warm-up N=%d %s: %w", n, name, err)
				}
			}
			for _, ch := range chans {
				if resp := <-ch; resp.Err != nil {
					srv.Close()
					return nil, 0, fmt.Errorf("warm-up N=%d %s: %w", n, name, resp.Err)
				}
			}
		}
	}
	return srv, time.Since(t0), nil
}

// setups runs the set-up reps times and returns the last server, still
// open, with every set-up's duration.
func (r *serveRig) setups(reps int) (*serve.Server, []float64, error) {
	var secs []float64
	var srv *serve.Server
	for i := 0; i < reps; i++ {
		if srv != nil {
			srv.Close()
		}
		s, d, err := r.start()
		if err != nil {
			return nil, nil, err
		}
		srv = s
		secs = append(secs, d.Seconds())
	}
	return srv, secs, nil
}

// reply is what one open-loop request saw.
type reply struct {
	sent, done time.Time
	written    time.Time // HTTP: when the handler began writing its reply
	status     int       // HTTP status
	body       []byte    // HTTP reply, until decoded
	out        []float32
	algo       tune.Algorithm
	err        error
}

// phase is one open-loop run's outcome.
type phase struct {
	start   time.Time // schedule origin: request i is due at start+Due[i]
	replies []reply
	load    Load
}

// wall is the time from the first due time to the last reply.
func (p phase) wall() time.Duration {
	last := p.start
	for _, rp := range p.replies {
		if rp.done.After(last) {
			last = rp.done
		}
	}
	return last.Sub(p.start.Add(p.load.Due[0]))
}

// latencies returns due-to-reply milliseconds of the successful requests.
func (p phase) latencies() []float64 {
	var ms []float64
	for i, rp := range p.replies {
		if rp.err == nil {
			ms = append(ms, millis(rp.done.Sub(p.start.Add(p.load.Due[i]))))
		}
	}
	return ms
}

// lateness returns how late, in milliseconds, each request was sent.
func (p phase) lateness() []float64 {
	ms := make([]float64, len(p.replies))
	for i, rp := range p.replies {
		ms[i] = millis(rp.sent.Sub(p.start.Add(p.load.Due[i])))
	}
	return ms
}

// run sends load open loop: each request leaves at its due time on its
// own goroutine, whether or not earlier ones have replied, through
// Server.Handler (viaHTTP) or Server.Submit. It returns once every
// request has replied.
func (r *serveRig) run(srv *serve.Server, load Load, viaHTTP bool) phase {
	var bodies [][]byte
	if viaHTTP {
		bodies = make([][]byte, load.Len())
		for i := range bodies {
			bodies[i], _ = json.Marshal(map[string]any{ // a map of strings and floats always marshals
				"device": r.device, "layer": r.names[load.Layer[i]], "image": load.Images[i]})
		}
	}
	if r.exec != nil {
		r.exec.own(load)
	}
	h := srv.Handler()
	p := phase{start: time.Now().Add(5 * time.Millisecond), replies: make([]reply, load.Len()), load: load}
	var wg sync.WaitGroup
	for i, due := range load.Due {
		time.Sleep(time.Until(p.start.Add(due)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := &p.replies[i]
			rp.sent = time.Now()
			if viaHTTP {
				r.sendHTTP(h, bodies[i], rp)
			} else {
				r.submit(srv, load, i, rp)
			}
		}()
	}
	wg.Wait()
	return p
}

func (r *serveRig) submit(srv *serve.Server, load Load, i int, rp *reply) {
	ch, err := srv.Submit(&serve.Request{Device: r.device, Layer: r.names[load.Layer[i]], Image: load.Images[i]})
	if err != nil {
		rp.done, rp.err = time.Now(), err
		return
	}
	resp := <-ch
	rp.done = time.Now()
	rp.out, rp.algo, rp.err = resp.Output, resp.Algo, resp.Err
}

// timedWriter notes when the handler starts writing its reply, which
// splits the handler's own encoding work from the wait for the batch.
type timedWriter struct {
	*httptest.ResponseRecorder
	written time.Time
}

func (w *timedWriter) WriteHeader(code int) {
	w.written = time.Now()
	w.ResponseRecorder.WriteHeader(code)
}

func (r *serveRig) sendHTTP(h http.Handler, body []byte, rp *reply) {
	w := &timedWriter{ResponseRecorder: httptest.NewRecorder()}
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
	rp.done = time.Now()
	rp.written, rp.status, rp.body = w.written, w.Code, w.Body.Bytes()
}

// decode turns an HTTP reply into an output image; it runs after the
// phase so that decoding is not timed as part of the request.
func (rp *reply) decode() {
	if rp.body == nil {
		return
	}
	var out struct {
		Output []float32 `json:"output"`
		Algo   string    `json:"algo"`
		Error  string    `json:"error"`
	}
	switch err := json.Unmarshal(rp.body, &out); {
	case err != nil:
		rp.err = fmt.Errorf("status %d, undecodable reply: %v", rp.status, err)
	case rp.status != http.StatusOK:
		rp.err = fmt.Errorf("status %d: %s", rp.status, out.Error)
	default:
		rp.out, rp.algo = out.Output, tune.Algorithm(out.Algo)
	}
	rp.body = nil
}

// check counts every request of the phase in res, failing those that
// were refused or failed, and compares replies with conv.Direct on the
// same image: every checkEvery-th reply, and every reply when traced.
func (r *serveRig) check(p phase, res *Result) {
	for i := range p.replies {
		rp := &p.replies[i]
		rp.decode()
		err := rp.err
		if err == nil && (i%checkEvery == 0 || r.tr != nil) {
			err = r.compare(p.load.Layer[i], p.load.Images[i], rp.out, rp.algo)
		}
		res.Attempted++
		if err != nil {
			res.fail(fmt.Errorf("request %d: %w", i, err))
		}
	}
}

// compare holds a reply to the tolerances of
// TestForwardAllAlgorithmsMatchDirect: 1e-4 for the fused and GEMM
// paths, 1e-3 for the non-fused F(4x4) transforms.
func (r *serveRig) compare(layer int, img, out []float32, algo tune.Algorithm) error {
	spec := r.specs[layer]
	_, flt, _ := r.model.Layer(spec.Name)
	ref, err := conv.Direct(serve.AssembleBatch(spec, [][]float32{img}, 1), flt, conv.Params{Pad: 1})
	if err != nil {
		return err
	}
	if len(out) != spec.OutLen() {
		return fmt.Errorf("output has %d floats, want %d", len(out), spec.OutLen())
	}
	tol := 1e-4
	if algo == tune.AlgoNonfused {
		tol = 1e-3
	}
	o := 0
	for k := 0; k < spec.K; k++ {
		for y := 0; y < spec.H; y++ {
			for x := 0; x < spec.W; x++ {
				if d := math.Abs(float64(out[o] - ref.ImageAt(0, k, y, x))); d > tol {
					return fmt.Errorf("%s output[%d] differs from conv.Direct by %g (tolerance %g)", algo, o, d, tol)
				}
				o++
			}
		}
	}
	return nil
}

// tracedSelector times every Choose and keeps the last call's interval
// for the executor: one dispatcher per device runs Choose and then
// Run for the same batch, back to back.
type tracedSelector struct {
	inner *serve.TuneSelector
	mu    sync.Mutex
	last  [2]time.Time
	calls int
	model int // choices whose fused time came from the analytic model
}

func (s *tracedSelector) Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error) {
	start := time.Now()
	ch, err := s.inner.Choose(dev, p)
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = [2]time.Time{start, end}
	s.calls++
	if ch.Source == "model" {
		s.model++
	}
	return ch, err
}

func (s *tracedSelector) takeLast() [2]time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// batchRecord is one traced batch.
type batchRecord struct {
	trace      string
	start, end time.Time // Choose start to Forward end
	algo       tune.Algorithm
	n, filled  int
	reqs       []int // requests of the current phase, by index
}

// tracedExec runs a batch as serve.ForwardExecutor does, timing the
// assembly and the forward pass, and ties the batch to its requests by
// image content: each request of a phase carries a distinct image.
type tracedExec struct {
	tr  *Tracer
	sel *tracedSelector

	mu      sync.Mutex
	owner   map[string]int // image key -> request index in the current phase
	prefix  string         // trace-id prefix of the current phase
	batches []batchRecord
}

// own registers the images of the next phase's requests.
func (e *tracedExec) own(load Load) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.owner = make(map[string]int, load.Len())
	for i, img := range load.Images {
		e.owner[imageKey(img)] = i
	}
}

func imageKey(img []float32) string {
	b := make([]byte, 4*len(img))
	for i, v := range img {
		u := math.Float32bits(v)
		b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
	}
	return string(b)
}

func (e *tracedExec) Run(spec serve.LayerSpec, flt *tensor.Tensor, choice tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	sel := e.sel.takeLast()
	t0 := time.Now()
	in := serve.AssembleBatch(spec, images, batchN)
	t1 := time.Now()
	out, err := cudart.Forward(in, flt, choice)
	t2 := time.Now()

	e.mu.Lock()
	defer e.mu.Unlock()
	rec := batchRecord{trace: fmt.Sprintf("%sbatch-%d", e.prefix, len(e.batches)),
		start: sel[0], end: t2, algo: choice.Algo, n: batchN, filled: len(images)}
	for _, img := range images {
		if i, ok := e.owner[imageKey(img)]; ok {
			rec.reqs = append(rec.reqs, i)
		}
	}
	root := e.tr.Add(rec.trace, "serve.batch", 0, rec.start, rec.end)
	e.tr.Add(rec.trace, "serve.select", root, sel[0], sel[1])
	e.tr.Add(rec.trace, "serve.assemble", root, t0, t1)
	e.tr.Add(rec.trace, forwardSpan(choice.Algo, batchN), root, t1, t2)
	e.batches = append(e.batches, rec)
	return out, err
}

// forwardSpan names a cudart.Forward span by algorithm and batch size,
// e.g. cudart.forward.fused.n32.
func forwardSpan(algo tune.Algorithm, n int) string {
	short := map[tune.Algorithm]string{tune.AlgoFused: "fused", tune.AlgoGEMM: "gemm", tune.AlgoNonfused: "nonfused"}[algo]
	return fmt.Sprintf("cudart.forward.%s.n%d", short, n)
}

// beginPhase starts a new traced phase: batch records and trace ids
// restart under prefix.
func (e *tracedExec) beginPhase(prefix string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prefix, e.batches = prefix, nil
}

// endPhase records each request's spans — due to reply, with the wait
// for its batch, the batch's execution and the hand-back as children —
// and returns the phase's batches.
func (e *tracedExec) endPhase(p phase, viaHTTP bool) []batchRecord {
	e.mu.Lock()
	batches := e.batches
	prefix := e.prefix
	e.mu.Unlock()
	batchOf := map[int]batchRecord{}
	for _, b := range batches {
		for _, i := range b.reqs {
			batchOf[i] = b
		}
	}
	outer := "serve.infer"
	if viaHTTP {
		outer = "serve.http"
	}
	for i, rp := range p.replies {
		trace := fmt.Sprintf("%sreq-%d", prefix, i)
		due := p.start.Add(p.load.Due[i])
		root := e.tr.Add(trace, "request", 0, due, rp.done)
		e.tr.Add(trace, "loadgen.late", root, due, rp.sent)
		call := e.tr.Add(trace, outer, root, rp.sent, rp.done)
		b, ok := batchOf[i]
		if !ok {
			continue
		}
		handBack := rp.done
		if viaHTTP {
			handBack = rp.written
		}
		e.tr.Add(trace, "serve.wait", call, rp.sent, b.start)
		e.tr.Add(trace, "serve.exec", call, b.start, b.end)
		e.tr.Add(trace, "serve.reply", call, b.end, handBack)
	}
	return batches
}
