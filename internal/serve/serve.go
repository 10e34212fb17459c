// Package serve is a batched multi-tenant inference service on top of
// cudart's prepared weights (cudart.Weights), on one device: requests
// for one layer wait in a bounded queue until the device is free, then
// leave as one batch padded up to a sweet spot (N ∈ {32, 64, 96, 128})
// that runs the algorithm a warm tune.Select chose for that shape; only
// its live images are computed. Every batch cut is decided by one
// clock-free state machine (the coalescer in policy.go), which the
// server's dispatcher goroutine drives here and the deterministic load
// generator (loadgen.go) drives in virtual time.
// Cold-miss selection is deduplicated by internal/sched's caching
// singleflight.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cudart"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/tune"
)

var (
	// ErrOverloaded rejects a request whose layer's queue is full —
	// the admission-control half of the policy: bounded queues fail fast
	// instead of absorbing unbounded latency.
	ErrOverloaded = errors.New("serve: queue full, request rejected")
	// ErrClosed rejects a request submitted after Close began.
	ErrClosed = errors.New("serve: server closed")
	// ErrPanicked fails every request of a batch whose Selector,
	// Executor or output slicing panicked; the dispatcher goes on to the
	// next batch.
	ErrPanicked = errors.New("serve: batch panicked")
	// ErrBadOutput fails every request of a batch whose Executor returned
	// a tensor that does not hold the batch's output images.
	ErrBadOutput = errors.New("serve: executor output does not fit the batch")
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
// The model owns its weights: each is copied and prepared for serving
// (cudart.Prepare) when its layer is added.
type Model struct {
	layers map[string]modelLayer
	names  []string
}

type modelLayer struct {
	spec LayerSpec
	w    *cudart.Weights
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{layers: map[string]modelLayer{}} }

// AddLayer registers a layer and prepares a copy of its filter, so
// changing flt afterwards does not change what the model serves. The
// spec must satisfy the kernel generator's constraints (C%8==0, K%64==0
// — batch N is padded by the server, so only the channel constraints
// bind here) and the filter must be a CRSK tensor of the spec's shape.
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
	w, err := cudart.Prepare(flt)
	if err != nil {
		return fmt.Errorf("serve: layer %q: %w", spec.Name, err)
	}
	m.layers[spec.Name] = modelLayer{spec: spec, w: w}
	m.names = append(m.names, spec.Name)
	sort.Strings(m.names)
	return nil
}

// Layer looks a layer up by name. The filter is a copy of the model's.
func (m *Model) Layer(name string) (LayerSpec, *tensor.Tensor, bool) {
	l, ok := m.layers[name]
	if !ok {
		return LayerSpec{}, nil, false
	}
	return l.spec, l.w.Filter(), true
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
// model, to run on the server's device.
type Request struct {
	Device string    // the server's gpu device name (e.g. "RTX2070")
	Layer  string    // model layer name
	Image  []float32 // length LayerSpec.InLen(), (c, h, w) row-major

	resp chan Response
}

// Response answers one Request once its batch has run.
type Response struct {
	Output []float32 // length and capacity LayerSpec.OutLen(), (k, h, w) row-major
	BatchN int       // the padded batch size the request rode in
	Filled int       // how many of the BatchN slots held real requests
	Algo   tune.Algorithm
	Err    error
}

// Executor runs one coalesced batch. The kernel runs batchN images:
// images fill slots 0..len(images)-1 and the remaining slots are zero
// padding, whose outputs nobody reads. The returned image tensor holds
// one K×H×W output image per slot, with N ≥ len(images): an executor
// may return the whole padded batch or, like the default, only the
// live images. The server owns it: replies alias an NCHW output, so an
// executor must not keep, reuse or change it after Run returns.
type Executor interface {
	Run(spec LayerSpec, flt *tensor.Tensor, choice tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error)
}

// Executor returns the default executor: it runs the batch's layer from
// the model's prepared weights (cudart.Weights.Forward) on the live
// images alone, assembled batch-major (NCHW), so replies slice its NCHW
// output. Its Run does not read flt, since the model holds its own copy.
func (m *Model) Executor() Executor { return modelExecutor{m} }

type modelExecutor struct{ m *Model }

func (e modelExecutor) Run(spec LayerSpec, _ *tensor.Tensor, choice tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	l, ok := e.m.layers[spec.Name]
	if !ok || l.spec != spec {
		return nil, fmt.Errorf("serve: model has no layer %+v", spec)
	}
	return l.w.Forward(AssembleBatch(spec, images, len(images)), batchN, choice)
}

// AssembleBatch copies per-request images into one NCHW batch tensor of
// batchN images, zero-padding the slots past len(images) (a cut runs at
// the next sweet spot up, so fewer than 32 requests still run as N=32).
func AssembleBatch(spec LayerSpec, images [][]float32, batchN int) *tensor.Tensor {
	in := tensor.New(tensor.NCHW, batchN, spec.C, spec.H, spec.W)
	for n, img := range images {
		copy(in.Data[n*spec.InLen():(n+1)*spec.InLen()], img)
	}
	return in
}

// sliceOutput returns request slot n of a batch output, whose (k, h, w)
// elements are one w-stride apart in any layout: with a unit stride
// (NCHW, or N=1) their capacity-capped run of out.Data, else a copy.
func sliceOutput(spec LayerSpec, out *tensor.Tensor, n int) []float32 {
	sn, _, _, sw := out.ImageStrides()
	if a, b := n*sn, n*sn+spec.OutLen(); sw == 1 {
		return out.Data[a:b:b]
	}
	res := make([]float32, spec.OutLen())
	for i, j := 0, n*sn; i < len(res); i, j = i+1, j+sw {
		res[i] = out.Data[j]
	}
	return res
}

// Config configures a Server.
type Config struct {
	Model    *Model
	Selector Selector   // default: cold NewTuneSelector(4) (analytic-model fallback)
	Exec     Executor   // default: Model.Executor()
	Device   gpu.Device // default (the zero value): RTX2070
}

func (c Config) withDefaults() Config {
	if c.Model == nil {
		c.Model = DemoModel(1)
	}
	if c.Selector == nil {
		c.Selector = NewTuneSelector(4)
	}
	if c.Exec == nil {
		c.Exec = c.Model.Executor()
	}
	if c.Device.Name == "" {
		c.Device = gpu.RTX2070()
	}
	return c
}

// queue is one layer's request stream: a lane of the server's
// coalescer.
type queue struct {
	lane int
	spec LayerSpec
	flt  *tensor.Tensor
}

// Server is the batched inference service on one device: one coalescer
// holding every layer's pending requests, and one dispatcher goroutine
// that runs them a batch at a time, as a GPU serializes kernel launches.
// Responses are delivered per request.
type Server struct {
	cfg    Config
	queues map[string]*queue // by layer name
	lanes  []*queue          // by lane

	mu     sync.Mutex
	wake   sync.Cond // signalled by Submit and Close
	co     *coalescer[*Request]
	closed bool
	done   chan struct{} // closed when the dispatcher returns
}

// NewServer starts the server's dispatcher. Close must be called to
// drain it.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	names := cfg.Model.LayerNames()
	if len(names) == 0 {
		return nil, errors.New("serve: model has no layers")
	}
	s := &Server{
		cfg:    cfg,
		queues: map[string]*queue{},
		co:     newCoalescer[*Request](len(names)),
		done:   make(chan struct{}),
	}
	s.wake.L = &s.mu
	for lane, name := range names {
		spec, flt, _ := cfg.Model.Layer(name)
		q := &queue{lane: lane, spec: spec, flt: flt}
		s.lanes = append(s.lanes, q)
		s.queues[name] = q
	}
	go s.dispatch()
	return s, nil
}

// Submit enqueues a request and returns the channel its Response will
// arrive on (buffered; the response is never dropped). It fails fast
// with ErrOverloaded when queueCap requests of its queue already wait
// to be cut, ErrClosed after Close. A request for another device than
// the server's has no queue.
func (s *Server) Submit(req *Request) (<-chan Response, error) {
	q, ok := s.queues[req.Layer]
	if !ok || req.Device != s.cfg.Device.Name {
		return nil, fmt.Errorf("serve: no queue for device %q layer %q", req.Device, req.Layer)
	}
	if len(req.Image) != q.spec.InLen() {
		return nil, fmt.Errorf("serve: layer %q wants %d image floats, got %d", req.Layer, q.spec.InLen(), len(req.Image))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.closed:
		return nil, ErrClosed
	case !s.co.admits(q.lane):
		return nil, ErrOverloaded
	}
	req.resp = make(chan Response, 1)
	s.co.push(q.lane, req)
	s.wake.Signal()
	return req.resp, nil
}

// Infer is the blocking convenience wrapper: Submit, then wait.
func (s *Server) Infer(req *Request) (Response, error) {
	ch, err := s.Submit(req)
	if err != nil {
		return Response{}, err
	}
	return <-ch, nil
}

// Close stops intake, runs every queued request through the executor
// (cut as they would be on a free device), waits for all of it to
// finish, and returns. Requests submitted after Close fail with
// ErrClosed; calling it again is a no-op.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.wake.Signal()
	s.mu.Unlock()
	<-s.done
}

// dispatch is the server's dispatcher. Whenever the device is free it
// pulls the next cut from the coalescer, so a request on an idle device
// leaves at once and the backlog that forms while a batch runs leaves
// as one batch. It sleeps while nothing is pending and returns once the
// server is closed and drained.
func (s *Server) dispatch() {
	defer close(s.done)
	s.mu.Lock()
	for {
		lane, b, ok := s.co.cut()
		if !ok {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.wake.Wait()
			continue
		}
		s.mu.Unlock()
		s.runBatch(s.lanes[lane], b.items, b.n)
		s.mu.Lock()
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
			fail(fmt.Errorf("%w: %s N=%d on %s: %v", ErrPanicked, q.spec.Name, batchN, s.cfg.Device.Name, p))
		}
	}()
	choice, err := s.cfg.Selector.Choose(s.cfg.Device, q.spec.Problem(batchN))
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
	if got := out.ImageShape(); got.C != q.spec.K || got.H != q.spec.H || got.W != q.spec.W || got.N < len(reqs) {
		return fail(fmt.Errorf("%w: %s N=%d holds %d requests, got K=%d H=%d W=%d N=%d, want K=%d H=%d W=%d N>=%d",
			ErrBadOutput, q.spec.Name, batchN, len(reqs), got.C, got.H, got.W, got.N, q.spec.K, q.spec.H, q.spec.W, len(reqs)))
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
