// Package serve is a batched multi-tenant inference service on top of
// cudart.Forward: requests for one (device, layer) shape coalesce in a
// bounded queue until a batch-size sweet spot (N ∈ {32, 64, 96, 128})
// fills or the oldest request's deadline expires, then the batch runs
// the algorithm a warm tune.Select chose for that shape. Every batch cut
// is decided by one clock-free state machine (the coalescer in
// policy.go), which a goroutine and a timer drive here and the
// deterministic load generator (loadgen.go) drives in virtual time. The
// scheduling plumbing (caching singleflight, drain-on-close worker
// pools) comes from internal/sched, the core factored out of the bench
// runner.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cudart"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/tune"
)

var (
	// ErrOverloaded rejects a request whose (device, layer) queue is full —
	// the admission-control half of the policy: bounded queues fail fast
	// instead of absorbing unbounded latency.
	ErrOverloaded = errors.New("serve: queue full, request rejected")
	// ErrClosed rejects a request submitted after Close began.
	ErrClosed = errors.New("serve: server closed")
	// ErrPanicked fails every request of a batch whose Selector,
	// Executor or output slicing panicked; the dispatcher goes on to the
	// next batch.
	ErrPanicked = errors.New("serve: batch panicked")
)

// LayerSpec names one convolution layer a model serves: a 3x3
// convolution with pad 1 (the only shape the runtime implements), so an
// input image is C×H×W and an output image K×H×W.
type LayerSpec struct {
	Name string
	C, K int // input / output channels (kernel needs C%8==0, K%64==0)
	H, W int // spatial size
}

// Problem is the kernel problem of a batch of n images of this layer.
func (s LayerSpec) Problem(n int) kernels.Problem {
	return kernels.Problem{C: s.C, K: s.K, N: n, H: s.H, W: s.W}
}

// InLen and OutLen are the flat image lengths of one request/response.
func (s LayerSpec) InLen() int  { return s.C * s.H * s.W }
func (s LayerSpec) OutLen() int { return s.K * s.H * s.W }

// Model is a named set of layers with their filter weights — what a
// tenant deploys. Filters are CRSK (the fused kernel's native layout).
type Model struct {
	layers map[string]modelLayer
	names  []string
}

type modelLayer struct {
	spec LayerSpec
	flt  *tensor.Tensor
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{layers: map[string]modelLayer{}} }

// AddLayer registers a layer and its filter. The spec must satisfy the
// kernel generator's constraints (C%8==0, K%64==0 — batch N is padded by
// the server, so only the channel constraints bind here) and the filter
// must be a CRSK tensor of the spec's shape.
func (m *Model) AddLayer(spec LayerSpec, flt *tensor.Tensor) error {
	if spec.Name == "" {
		return errors.New("serve: layer needs a name")
	}
	if _, dup := m.layers[spec.Name]; dup {
		return fmt.Errorf("serve: duplicate layer %q", spec.Name)
	}
	if spec.C%8 != 0 || spec.K%64 != 0 {
		return fmt.Errorf("serve: layer %q needs C%%8==0 and K%%64==0 (got C=%d K=%d)", spec.Name, spec.C, spec.K)
	}
	if spec.H <= 0 || spec.W <= 0 {
		return fmt.Errorf("serve: layer %q has empty spatial size", spec.Name)
	}
	if flt.Layout != tensor.CRSK {
		return fmt.Errorf("serve: layer %q filter must be CRSK", spec.Name)
	}
	fs := flt.FilterShapeOf()
	if fs.C != spec.C || fs.K != spec.K || fs.R != 3 || fs.S != 3 {
		return fmt.Errorf("serve: layer %q filter shape (K=%d C=%d %dx%d) does not match spec", spec.Name, fs.K, fs.C, fs.R, fs.S)
	}
	m.layers[spec.Name] = modelLayer{spec: spec, flt: flt}
	m.names = append(m.names, spec.Name)
	sort.Strings(m.names)
	return nil
}

// Layer looks a layer up by name.
func (m *Model) Layer(name string) (LayerSpec, *tensor.Tensor, bool) {
	l, ok := m.layers[name]
	return l.spec, l.flt, ok
}

// LayerNames returns the registered layer names, sorted.
func (m *Model) LayerNames() []string { return append([]string(nil), m.names...) }

// DemoModel builds a two-layer model with deterministic random filters —
// shapes small enough that cudart's functional kernels run batches of
// 128 in milliseconds, used by the load generator and the demo server.
func DemoModel(seed uint64) *Model {
	m := NewModel()
	specs := []LayerSpec{
		{Name: "conv_a", C: 8, K: 64, H: 6, W: 6},
		{Name: "conv_b", C: 16, K: 64, H: 4, W: 4},
	}
	for i, s := range specs {
		flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: s.K, C: s.C, R: 3, S: 3})
		flt.FillRandom(seed + uint64(i)*1000003)
		if err := m.AddLayer(s, flt); err != nil {
			panic(err) // specs above are static and valid
		}
	}
	return m
}

// Request is one inference call: a single image for one layer of the
// model, to run on one device.
type Request struct {
	Device string    // registered gpu device name (e.g. "RTX2070")
	Layer  string    // model layer name
	Image  []float32 // length LayerSpec.InLen(), (c, h, w) row-major

	resp chan Response
	enq  time.Time
}

// Response answers one Request once its batch has run.
type Response struct {
	Output []float32 // length LayerSpec.OutLen(), (k, h, w) row-major
	BatchN int       // the padded batch size the request rode in
	Filled int       // how many of the BatchN slots held real requests
	Algo   tune.Algorithm
	Err    error
}

// Executor runs one coalesced batch. images fills slots 0..len(images)-1
// of a batchN-image batch; the remaining slots are zero-padded. The
// returned tensor is KHWN with N == batchN.
type Executor interface {
	Run(spec LayerSpec, flt *tensor.Tensor, choice tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error)
}

// ForwardExecutor is the real executor: batch assembly into the CHWN
// layout the fused kernel wants, then cudart.Forward with the chosen
// algorithm.
type ForwardExecutor struct{}

// Run implements Executor on cudart.Forward.
func (ForwardExecutor) Run(spec LayerSpec, flt *tensor.Tensor, choice tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	in := AssembleBatch(spec, images, batchN)
	return cudart.Forward(in, flt, choice)
}

// AssembleBatch packs per-request images into one CHWN batch tensor of
// batchN images, zero-padding the slots past len(images) (the
// partial-batch fallback: a deadline-expired batch below the 32-image
// floor still runs as N=32).
func AssembleBatch(spec LayerSpec, images [][]float32, batchN int) *tensor.Tensor {
	in := tensor.New(tensor.CHWN, spec.C, spec.H, spec.W, batchN)
	for n, img := range images {
		i := 0
		for c := 0; c < spec.C; c++ {
			for h := 0; h < spec.H; h++ {
				for w := 0; w < spec.W; w++ {
					in.ImageSet(n, c, h, w, img[i])
					i++
				}
			}
		}
	}
	return in
}

// sliceOutput extracts request slot n of a KHWN batch output.
func sliceOutput(spec LayerSpec, out *tensor.Tensor, n int) []float32 {
	res := make([]float32, 0, spec.OutLen())
	for k := 0; k < spec.K; k++ {
		for h := 0; h < spec.H; h++ {
			for w := 0; w < spec.W; w++ {
				res = append(res, out.ImageAt(n, k, h, w))
			}
		}
	}
	return res
}

// Config configures a Server.
type Config struct {
	Policy   Policy
	Model    *Model
	Selector Selector     // default: cold NewTuneSelector(4) (analytic-model fallback)
	Exec     Executor     // default: ForwardExecutor
	Devices  []gpu.Device // default: RTX2070
	// DispatchDepth bounds how many cut batches may queue behind the one
	// executing on each device; a full dispatch queue backpressures the
	// coalescer, which in turn fills the request queue until admission
	// control rejects. Default 32.
	DispatchDepth int
}

func (c Config) withDefaults() Config {
	if c.Model == nil {
		c.Model = DemoModel(1)
	}
	if c.Selector == nil {
		c.Selector = NewTuneSelector(4)
	}
	if c.Exec == nil {
		c.Exec = ForwardExecutor{}
	}
	if len(c.Devices) == 0 {
		c.Devices = []gpu.Device{gpu.RTX2070()}
	}
	if c.DispatchDepth <= 0 {
		c.DispatchDepth = 32
	}
	return c
}

// queue is one (device, layer) request stream: the bounded admission
// channel feeding that stream's coalescer goroutine.
type queue struct {
	dev  gpu.Device
	spec LayerSpec
	flt  *tensor.Tensor
	ch   chan *Request
}

func queueKey(device, layer string) string { return device + "|" + layer }

// Server is the batched inference service: one coalescer per
// (device, layer) queue, one serial dispatcher per device (a GPU
// serializes kernel launches), responses delivered per request.
type Server struct {
	cfg    Config
	queues map[string]*queue
	pools  map[string]*sched.Pool // per device: 1 worker = serial launches
	wg     sync.WaitGroup         // live coalescers

	// mu makes Submit's channel send and Close's channel close mutually
	// exclusive (same discipline as sched.Pool): Submit holds the read
	// lock across the try-send, Close flips closed under the write lock
	// before closing the queues.
	mu     sync.RWMutex
	closed bool
}

// NewServer starts a server for every (device, layer) pair of the
// config. Close must be called to drain it.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Model.LayerNames()) == 0 {
		return nil, errors.New("serve: model has no layers")
	}
	s := &Server{
		cfg:    cfg,
		queues: map[string]*queue{},
		pools:  map[string]*sched.Pool{},
	}
	for _, dev := range cfg.Devices {
		if _, dup := s.pools[dev.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate device %q", dev.Name)
		}
		s.pools[dev.Name] = sched.StartPool(context.Background(), 1, cfg.DispatchDepth)
		for _, name := range cfg.Model.LayerNames() {
			spec, flt, _ := cfg.Model.Layer(name)
			q := &queue{dev: dev, spec: spec, flt: flt, ch: make(chan *Request, cfg.Policy.queueCap())}
			s.queues[queueKey(dev.Name, name)] = q
			s.wg.Add(1)
			go s.coalesce(q)
		}
	}
	return s, nil
}

// Submit enqueues a request and returns the channel its Response will
// arrive on (buffered; the response is never dropped). It fails fast
// with ErrOverloaded when the queue is full, ErrClosed after Close.
func (s *Server) Submit(req *Request) (<-chan Response, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	q, ok := s.queues[queueKey(req.Device, req.Layer)]
	if !ok {
		return nil, fmt.Errorf("serve: no queue for device %q layer %q", req.Device, req.Layer)
	}
	if len(req.Image) != q.spec.InLen() {
		return nil, fmt.Errorf("serve: layer %q wants %d image floats, got %d", req.Layer, q.spec.InLen(), len(req.Image))
	}
	req.resp = make(chan Response, 1)
	req.enq = time.Now()
	select {
	case q.ch <- req:
		return req.resp, nil
	default:
		return nil, ErrOverloaded
	}
}

// Infer is the blocking convenience wrapper: Submit, then wait.
func (s *Server) Infer(req *Request) (Response, error) {
	ch, err := s.Submit(req)
	if err != nil {
		return Response{}, err
	}
	return <-ch, nil
}

// Close stops intake, flushes every queued request through the
// executors (partial batches go out padded, exactly as on deadline
// expiry), waits for all of it to finish, and returns. Safe to call
// once; requests submitted after Close fail with ErrClosed.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, q := range s.queues {
		close(q.ch)
	}
	s.mu.Unlock()
	s.wg.Wait() // coalescers flush their pending batches into the pools
	for _, p := range s.pools {
		p.Close() // drain-on-close: queued batches still execute
	}
}

// coalesce is one queue's goroutine: it pushes each request into the
// coalescer, dispatches every cut, and arms one timer at exactly wakeAt,
// so a lone request leaves MaxWait after it arrived.
func (s *Server) coalesce(q *queue) {
	defer s.wg.Done()
	c := newCoalescer[*Request](s.cfg.Policy)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	var armedAt time.Time // the deadline the timer is armed for; zero while idle
	for {
		var wake <-chan time.Time
		if !armedAt.IsZero() {
			wake = timer.C
		}
		select {
		case r, ok := <-q.ch:
			if !ok {
				timer.Stop()
				for _, b := range c.drain() {
					s.dispatch(q, b)
				}
				return
			}
			if b, full := c.push(r, r.enq); full {
				s.dispatch(q, b)
			}
		case <-wake:
			armedAt = time.Time{}
		}
		b, ok, wakeAt := c.next(time.Now())
		for ; ok; b, ok, wakeAt = c.next(time.Now()) {
			s.dispatch(q, b)
		}
		if !wakeAt.Equal(armedAt) {
			if !timer.Stop() {
				select { // fired but not yet received
				case <-timer.C:
				default:
				}
			}
			if armedAt = wakeAt; !wakeAt.IsZero() {
				timer.Reset(time.Until(wakeAt))
			}
		}
	}
}

// dispatch hands one cut batch to the queue's device dispatcher. The
// pool is a single worker — kernel launches on one device serialize —
// and Submit blocks when DispatchDepth batches already wait, which is
// the backpressure that lets admission control engage upstream.
func (s *Server) dispatch(q *queue, b cut[*Request]) {
	if ok := s.pools[q.dev.Name].Submit(func() { s.runBatch(q, b.items, b.n) }); !ok {
		for _, r := range b.items {
			r.resp <- Response{Err: ErrClosed}
		}
	}
}

// runBatch runs one batch and answers each of its requests exactly once.
func (s *Server) runBatch(q *queue, reqs []*Request, batchN int) {
	for i, resp := range s.execBatch(q, reqs, batchN) {
		reqs[i].resp <- resp
	}
}

// execBatch selects the algorithm for this batch shape (warm via the
// tune store; cold misses computed once via singleflight), executes, and
// slices out the per-slot outputs. A panic anywhere in that fails the
// whole batch with ErrPanicked and the panic value, and nothing else.
func (s *Server) execBatch(q *queue, reqs []*Request, batchN int) (resps []Response) {
	resps = make([]Response, len(reqs))
	fail := func(err error) []Response {
		for i := range resps {
			resps[i] = Response{Err: err}
		}
		return resps
	}
	defer func() {
		if p := recover(); p != nil {
			fail(fmt.Errorf("%w: %s N=%d on %s: %v", ErrPanicked, q.spec.Name, batchN, q.dev.Name, p))
		}
	}()
	choice, err := s.cfg.Selector.Choose(q.dev, q.spec.Problem(batchN))
	if err != nil {
		return fail(err)
	}
	images := make([][]float32, len(reqs))
	for i, r := range reqs {
		images[i] = r.Image
	}
	out, err := s.cfg.Exec.Run(q.spec, q.flt, choice, images, batchN)
	if err != nil {
		return fail(err)
	}
	for i := range resps {
		resps[i] = Response{
			Output: sliceOutput(q.spec, out, i),
			BatchN: batchN,
			Filled: len(reqs),
			Algo:   choice.Algo,
		}
	}
	return resps
}
