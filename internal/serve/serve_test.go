package serve

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// stubExec is the test executor: optionally gated (Run blocks until the
// gate closes), it records every batch and returns zeros of the right
// shape.
type stubExec struct {
	gate    chan struct{} // nil = never blocks
	running chan struct{} // if non-nil (capacity 1), Run signals entry on it

	mu      sync.Mutex
	batches [][2]int // (batchN, filled)
}

func gatedExec() *stubExec {
	return &stubExec{gate: make(chan struct{}), running: make(chan struct{}, 1)}
}

func (e *stubExec) Run(spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	select {
	case e.running <- struct{}{}:
	default:
	}
	if e.gate != nil {
		<-e.gate
	}
	e.mu.Lock()
	e.batches = append(e.batches, [2]int{batchN, len(images)})
	e.mu.Unlock()
	return tensor.New(tensor.KHWN, spec.K, spec.H, spec.W, batchN), nil
}

func (e *stubExec) record() [][2]int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([][2]int(nil), e.batches...)
}

func demoRequest(m *Model, layer string, seed uint64) *Request {
	spec, _, ok := m.Layer(layer)
	if !ok {
		panic("no layer " + layer)
	}
	img := make([]float32, spec.InLen())
	r := tensor.NewRNG(seed)
	for i := range img {
		img[i] = r.Float32() - 0.5
	}
	return &Request{Device: gpu.RTX2070().Name, Layer: layer, Image: img}
}

// occupy makes the device busy: it submits one request and returns once
// the gated executor e is running its batch, which holds the device
// until e's gate opens. Requests submitted meanwhile pile up pending, so
// the next cut takes them together. The occupying request answers 1/32.
func occupy(t *testing.T, s *Server, e *stubExec, m *Model) <-chan Response {
	t.Helper()
	ch, err := s.Submit(demoRequest(m, "conv_a", 99))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-e.running:
	case <-time.After(10 * time.Second):
		t.Fatal("a lone request on an idle device was not cut")
	}
	return ch
}

// checkOccupier checks the occupying request's answer.
func checkOccupier(t *testing.T, ch <-chan Response) {
	t.Helper()
	if resp := <-ch; resp.Err != nil || resp.BatchN != 32 || resp.Filled != 1 {
		t.Fatalf("occupying request: batch %d/%d err %v, want 1/32", resp.Filled, resp.BatchN, resp.Err)
	}
}

// TestServerForwardEndToEnd runs real batches through cudart.Forward and
// checks every response against the CPU direct-convolution oracle —
// convolution is per-image independent, so each response must match the
// direct result of its own image whatever batch it was coalesced into.
func TestServerForwardEndToEnd(t *testing.T) {
	model := DemoModel(3)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 48
	type pend struct {
		req *Request
		ch  <-chan Response
	}
	var pends []pend
	for i := 0; i < n; i++ {
		layer := model.LayerNames()[i%2]
		req := demoRequest(model, layer, uint64(1000+i))
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		pends = append(pends, pend{req, ch})
	}
	for i, p := range pends {
		resp := <-p.ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.BatchN%32 != 0 || resp.BatchN == 0 {
			t.Fatalf("request %d rode a non-sweet-spot batch N=%d", i, resp.BatchN)
		}
		if resp.Algo != tune.AlgoFused {
			t.Fatalf("request %d ran %s", i, resp.Algo)
		}
		spec, flt, _ := model.Layer(p.req.Layer)
		in := AssembleBatch(spec, [][]float32{p.req.Image}, 32)
		ref, err := conv.Direct(in, flt, conv.Params{Pad: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Output) != spec.OutLen() {
			t.Fatalf("request %d: output length %d, want %d", i, len(resp.Output), spec.OutLen())
		}
		o := 0
		for k := 0; k < spec.K; k++ {
			for y := 0; y < spec.H; y++ {
				for x := 0; x < spec.W; x++ {
					if d := math.Abs(float64(resp.Output[o] - ref.ImageAt(0, k, y, x))); d > 1e-4 {
						t.Fatalf("request %d: output[%d] differs from direct by %g", i, o, d)
					}
					o++
				}
			}
		}
	}
}

// TestDeadlinePartialBatch: fewer requests than the 32-image kernel
// floor, pending together when the device frees, leave as one batch
// padded up to N=32, with Filled reporting the real occupancy.
func TestDeadlinePartialBatch(t *testing.T) {
	exec := gatedExec()
	model := DemoModel(5)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	busy := occupy(t, s, exec, model)
	var chans []<-chan Response
	for i := 0; i < 5; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_a", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(exec.gate)
	checkOccupier(t, busy)
	for i, ch := range chans {
		resp := <-ch
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if resp.BatchN != 32 {
			t.Fatalf("request %d: BatchN = %d, want the padded 32 floor", i, resp.BatchN)
		}
		if resp.Filled != 5 {
			t.Fatalf("request %d: Filled = %d, want 5", i, resp.Filled)
		}
	}
}

// TestLoneRequestCutOnIdle: a request that finds its device idle is
// cut at once, alone, with no timer to wait out; requests that arrive
// while a batch runs leave together as one batch once the device frees.
func TestLoneRequestCutOnIdle(t *testing.T) {
	exec := gatedExec()
	model := DemoModel(6)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	busy := occupy(t, s, exec, model) // idle device: cut alone at once
	var chans []<-chan Response
	for i := 0; i < 70; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_a", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(exec.gate)
	checkOccupier(t, busy)
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil || resp.BatchN != 96 || resp.Filled != 70 {
			t.Fatalf("request %d: batch %d/%d err %v, want the 70 that arrived during the busy batch as 70/96",
				i, resp.Filled, resp.BatchN, resp.Err)
		}
	}

	for i := 0; i < 3; i++ { // idle again: each lone request goes alone
		resp, err := s.Infer(demoRequest(model, "conv_b", uint64(100+i)))
		if err != nil || resp.Err != nil {
			t.Fatalf("lone request %d: %v %v", i, err, resp.Err)
		}
		if resp.BatchN != 32 || resp.Filled != 1 {
			t.Fatalf("lone request %d: batch %d/%d, want 1/32", i, resp.Filled, resp.BatchN)
		}
	}
}

// faultSelector and faultExec panic on their second call — the batch
// after the one holding the device busy — and otherwise defer to the
// test stubs: a fault injected into one batch. A faultSelector with an
// err returns it from that call instead.
type faultSelector struct {
	FixedSelector
	err   error
	calls atomic.Int32
}

func (f *faultSelector) Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error) {
	if f.calls.Add(1) == 2 {
		if f.err != nil {
			return tune.Choice{}, f.err
		}
		panic("injected selector fault")
	}
	return f.FixedSelector.Choose(dev, p)
}

// A faultExec with a nil out panics on its second call; otherwise that
// call returns out's tensor, the wrong output for the batch.
type faultExec struct {
	*stubExec
	out   func(spec LayerSpec, filled int) *tensor.Tensor
	calls atomic.Int32
}

func (e *faultExec) Run(spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	if e.calls.Add(1) == 2 {
		if e.out == nil {
			panic("injected executor fault")
		}
		return e.out(spec, len(images)), nil
	}
	return e.stubExec.Run(spec, flt, ch, images, batchN)
}

// TestPanicContainedToBatch: a Selector or Executor that panics fails
// every request of its own batch with ErrPanicked naming the panic, a
// Selector that returns an error fails them with that error, an
// Executor whose output holds fewer images than the batch has requests,
// or images of the wrong size, fails it with ErrBadOutput naming the
// shapes, and either way the server goes on serving the next batch.
func TestPanicContainedToBatch(t *testing.T) {
	fused := FixedSelector{Algo: tune.AlgoFused}
	errSelect := errors.New("injected selector error")
	badOutput := func(out func(spec LayerSpec, filled int) *tensor.Tensor) func(*stubExec) Executor {
		return func(e *stubExec) Executor { return &faultExec{stubExec: e, out: out} }
	}
	for _, tc := range []struct {
		name    string
		sel     func() Selector
		exec    func(*stubExec) Executor
		wantErr error
		want    string
	}{
		{"selector", func() Selector { return &faultSelector{FixedSelector: fused} },
			func(e *stubExec) Executor { return e }, ErrPanicked, "injected selector fault"},
		{"selector error", func() Selector { return &faultSelector{FixedSelector: fused, err: errSelect} },
			func(e *stubExec) Executor { return e }, errSelect, "injected selector error"},
		{"executor", func() Selector { return fused },
			func(e *stubExec) Executor { return &faultExec{stubExec: e} }, ErrPanicked, "injected executor fault"},
		{"short output", func() Selector { return fused },
			badOutput(func(spec LayerSpec, filled int) *tensor.Tensor {
				return tensor.New(tensor.KHWN, spec.K, spec.H, spec.W, filled-1)
			}), ErrBadOutput, "got K=64 H=6 W=6 N=2, want K=64 H=6 W=6 N>=3"},
		{"wrong image size", func() Selector { return fused },
			badOutput(func(spec LayerSpec, _ int) *tensor.Tensor {
				return tensor.New(tensor.KHWN, spec.K, spec.H, spec.W+1, 32)
			}), ErrBadOutput, "got K=64 H=6 W=7 N=32, want K=64 H=6 W=6 N>=3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := DemoModel(8)
			gated := gatedExec()
			s, err := NewServer(Config{Model: model, Selector: tc.sel(), Exec: tc.exec(gated)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			busy := occupy(t, s, gated, model)
			var chans []<-chan Response
			for i := 0; i < 3; i++ {
				ch, err := s.Submit(demoRequest(model, "conv_a", uint64(i)))
				if err != nil {
					t.Fatal(err)
				}
				chans = append(chans, ch)
			}
			close(gated.gate)
			checkOccupier(t, busy)
			for i, ch := range chans {
				resp := <-ch
				if !errors.Is(resp.Err, tc.wantErr) || !strings.Contains(resp.Err.Error(), tc.want) {
					t.Fatalf("request %d: err = %v, want %v naming %q", i, resp.Err, tc.wantErr, tc.want)
				}
			}
			resp, err := s.Infer(demoRequest(model, "conv_a", 9))
			if err != nil || resp.Err != nil {
				t.Fatalf("batch after the panic: %v %v", err, resp.Err)
			}
			if resp.BatchN != 32 || resp.Filled != 1 {
				t.Fatalf("batch after the panic: %d/%d, want 1/32", resp.Filled, resp.BatchN)
			}
		})
	}
}

// TestFullBatchImmediate: 128 requests pending when the device frees
// leave as one full batch.
func TestFullBatchImmediate(t *testing.T) {
	exec := gatedExec()
	model := DemoModel(7)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	busy := occupy(t, s, exec, model)
	var chans []<-chan Response
	for i := 0; i < 128; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_b", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	close(exec.gate)
	checkOccupier(t, busy)
	deadline := time.After(30 * time.Second)
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d: %v", i, resp.Err)
			}
			if resp.BatchN != 128 || resp.Filled != 128 {
				t.Fatalf("request %d: batch %d/%d, want 128/128", i, resp.Filled, resp.BatchN)
			}
		case <-deadline:
			t.Fatal("the full batch was not cut when the device freed")
		}
	}
}

// TestAdmissionControl: with the executor gated shut, floods past the
// queue bound get ErrOverloaded instead of unbounded queueing, and every
// accepted request still completes once the gate opens.
func TestAdmissionControl(t *testing.T) {
	exec := &stubExec{gate: make(chan struct{})}
	model := DemoModel(9)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}

	var chans []<-chan Response
	rejected := 0
	const flood = queueCap + 1000
	for i := 0; i < flood; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_a", uint64(i)))
		switch {
		case err == nil:
			chans = append(chans, ch)
		case errors.Is(err, ErrOverloaded):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatalf("%d requests against a gated executor and queueCap=%d produced no ErrOverloaded", flood, queueCap)
	}
	close(exec.gate)
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("accepted request %d failed: %v", i, resp.Err)
		}
	}
	s.Close()
}

// TestBusyDeviceAdmitsQueueCap pins the admission rule the load
// generator shares: a queue admits while fewer than queueCap requests
// wait to be cut. With the device busy on one request, a flood from
// several goroutines gets exactly queueCap more accepted; the rest are
// refused, and every accepted request completes once the device frees.
func TestBusyDeviceAdmitsQueueCap(t *testing.T) {
	const flooders, each = 4, queueCap/4 + 100
	exec := gatedExec()
	model := DemoModel(10)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	chans := []<-chan Response{occupy(t, s, exec, model)}
	rejected := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for f := 0; f < flooders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ch, err := s.Submit(demoRequest(model, "conv_a", uint64(f*each+i)))
				mu.Lock()
				switch {
				case err == nil:
					chans = append(chans, ch)
				case errors.Is(err, ErrOverloaded):
					rejected++
				default:
					t.Errorf("submit %d/%d: %v", f, i, err)
				}
				mu.Unlock()
			}
		}(f)
	}
	wg.Wait()
	if len(chans) != 1+queueCap || rejected != flooders*each-queueCap {
		t.Fatalf("accepted %d, rejected %d; want 1 in flight + %d pending accepted, %d rejected",
			len(chans), rejected, queueCap, flooders*each-queueCap)
	}
	close(exec.gate)
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("accepted request %d failed: %v", i, resp.Err)
		}
	}
}

// TestDrainOnClose: Close must flush requests still pending when it
// begins through the executor (no dropped responses) and leave no
// goroutine behind.
func TestDrainOnClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	exec := gatedExec()
	model := DemoModel(11)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	chans := []<-chan Response{occupy(t, s, exec, model)}
	for i := 0; i < 40; i++ {
		ch, err := s.Submit(demoRequest(model, model.LayerNames()[i%2], uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	for { // Close has begun once it refuses new requests
		ch, err := s.Submit(demoRequest(model, "conv_a", 1))
		if errors.Is(err, ErrClosed) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch) // accepted before Close: drained too
		time.Sleep(time.Millisecond)
	}
	close(exec.gate) // only now can the 40 pending requests run
	<-closed
	for i, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("request %d failed on drain: %v", i, resp.Err)
			}
			if resp.BatchN%32 != 0 {
				t.Fatalf("request %d drained in a non-padded batch N=%d", i, resp.BatchN)
			}
		default:
			t.Fatalf("request %d had no response after Close returned — drain dropped it", i)
		}
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Close: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSubmitAfterCloseRejected pins the shutdown contract.
func TestSubmitAfterCloseRejected(t *testing.T) {
	model := DemoModel(13)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(demoRequest(model, "conv_a", 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestThousandsInFlight: with the executor gated, the server must hold
// well over a thousand accepted-but-unanswered requests at once, and
// answer every one after the gate opens.
func TestThousandsInFlight(t *testing.T) {
	exec := &stubExec{gate: make(chan struct{})}
	model := DemoModel(17)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 1500
	var inFlight, peak, done int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req := demoRequest(model, model.LayerNames()[i%2], uint64(i))
		ch, err := s.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if cur <= p || atomic.CompareAndSwapInt64(&peak, p, cur) {
				break
			}
		}
		wg.Add(1)
		go func(i int, ch <-chan Response) {
			defer wg.Done()
			resp := <-ch
			atomic.AddInt64(&inFlight, -1)
			if resp.Err != nil {
				t.Errorf("request %d: %v", i, resp.Err)
				return
			}
			atomic.AddInt64(&done, 1)
		}(i, ch)
	}
	if got := atomic.LoadInt64(&inFlight); got != n {
		t.Fatalf("only %d of %d requests in flight before the gate opened", got, n)
	}
	close(exec.gate)
	wg.Wait()
	s.Close()
	if peak < 1000 {
		t.Fatalf("peak in-flight %d, want >= 1000", peak)
	}
	if done != n {
		t.Fatalf("%d of %d requests completed", done, n)
	}
}

// TestModelValidation: layer constraints are enforced at registration.
func TestModelValidation(t *testing.T) {
	m := NewModel()
	bad := LayerSpec{Name: "bad", C: 7, K: 64, H: 4, W: 4}
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 64, C: 7, R: 3, S: 3})
	if err := m.AddLayer(bad, flt); err == nil {
		t.Fatal("C=7 layer accepted (kernel needs C%8==0)")
	}
	ok := LayerSpec{Name: "ok", C: 8, K: 64, H: 4, W: 4}
	if err := m.AddLayer(ok, tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 64, C: 8, R: 3, S: 3})); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLayer(ok, tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 64, C: 8, R: 3, S: 3})); err == nil {
		t.Fatal("duplicate layer accepted")
	}
	if _, err := NewServer(Config{Model: NewModel()}); err == nil {
		t.Fatal("empty model accepted")
	}
}

// TestSubmitValidation: unknown queues and wrong image sizes fail fast.
func TestSubmitValidation(t *testing.T) {
	model := DemoModel(19)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(&Request{Device: "NO_SUCH_GPU", Layer: "conv_a"}); err == nil {
		t.Fatal("unknown device accepted")
	}
	if _, err := s.Submit(&Request{Device: gpu.RTX2070().Name, Layer: "nope"}); err == nil {
		t.Fatal("unknown layer accepted")
	}
	if _, err := s.Submit(&Request{Device: gpu.RTX2070().Name, Layer: "conv_a", Image: make([]float32, 3)}); err == nil {
		t.Fatal("short image accepted")
	}
}
