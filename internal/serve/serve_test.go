package serve

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conv"
	"repro/internal/gpu"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// stubExec is the test executor: optionally gated (Run blocks until the
// gate closes), it records every batch and returns zeros of the right
// shape.
type stubExec struct {
	gate chan struct{} // nil = never blocks

	mu      sync.Mutex
	batches [][2]int // (batchN, filled)
}

func (e *stubExec) Run(spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
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

// TestServerForwardEndToEnd runs real batches through cudart.Forward and
// checks every response against the CPU direct-convolution oracle —
// convolution is per-image independent, so each response must match the
// direct result of its own image whatever batch it was coalesced into.
func TestServerForwardEndToEnd(t *testing.T) {
	model := DemoModel(3)
	s, err := NewServer(Config{
		Policy:   Policy{MaxWait: 3 * time.Millisecond},
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 48 // 32-cut on expiry plus a padded partial
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
// floor must still dispatch when the deadline expires — padded up to
// N=32, with Filled reporting the real occupancy.
func TestDeadlinePartialBatch(t *testing.T) {
	exec := &stubExec{}
	model := DemoModel(5)
	s, err := NewServer(Config{
		Policy:   Policy{MaxWait: 2 * time.Millisecond},
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var chans []<-chan Response
	for i := 0; i < 5; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_a", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
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

// TestLoneRequestWaitsMaxWait: the coalescer's timer is armed at the
// oldest request's deadline — a lone request is neither cut early nor
// left waiting for a second arrival.
func TestLoneRequestWaitsMaxWait(t *testing.T) {
	const wait = 30 * time.Millisecond
	model := DemoModel(6)
	s, err := NewServer(Config{
		Policy:   Policy{MaxWait: wait},
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		start := time.Now()
		resp, err := s.Infer(demoRequest(model, "conv_a", uint64(i)))
		if err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v %v", i, err, resp.Err)
		}
		if took := time.Since(start); took < wait || took > wait+5*time.Second {
			t.Fatalf("request %d answered after %v, want MaxWait %v", i, took, wait)
		}
		if resp.BatchN != 32 || resp.Filled != 1 {
			t.Fatalf("request %d: batch %d/%d, want 1/32", i, resp.Filled, resp.BatchN)
		}
	}
}

// TestFullBatchImmediate: a full 128 dispatches at once even under an
// effectively infinite deadline.
func TestFullBatchImmediate(t *testing.T) {
	exec := &stubExec{}
	model := DemoModel(7)
	s, err := NewServer(Config{
		Policy:   Policy{MaxWait: time.Hour},
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var chans []<-chan Response
	for i := 0; i < 128; i++ {
		ch, err := s.Submit(demoRequest(model, "conv_b", uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
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
			t.Fatal("full batch did not dispatch before the deadline — coalescer waited out MaxWait")
		}
	}
}

// TestAdmissionControl: with the executor gated shut, a tiny dispatch
// depth and a tiny queue cap, backpressure must propagate to admission —
// floods get ErrOverloaded instead of unbounded queueing — and every
// accepted request still completes once the gate opens.
func TestAdmissionControl(t *testing.T) {
	exec := &stubExec{gate: make(chan struct{})}
	model := DemoModel(9)
	s, err := NewServer(Config{
		Policy:        Policy{MaxWait: time.Nanosecond, QueueCap: 8},
		Model:         model,
		Selector:      FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:          exec,
		DispatchDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	var chans []<-chan Response
	rejected := 0
	for i := 0; i < 2000; i++ {
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
		t.Fatal("2000 requests against a gated executor and QueueCap=8 produced no ErrOverloaded")
	}
	close(exec.gate)
	for i, ch := range chans {
		if resp := <-ch; resp.Err != nil {
			t.Fatalf("accepted request %d failed: %v", i, resp.Err)
		}
	}
	s.Close()
}

// TestDrainOnClose: Close must flush queued requests through the
// executor (no dropped responses) and leave no goroutine behind.
func TestDrainOnClose(t *testing.T) {
	baseline := runtime.NumGoroutine()

	exec := &stubExec{}
	model := DemoModel(11)
	s, err := NewServer(Config{
		Policy:   Policy{MaxWait: time.Hour}, // only Close can flush these
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     exec,
	})
	if err != nil {
		t.Fatal(err)
	}
	var chans []<-chan Response
	for i := 0; i < 40; i++ {
		ch, err := s.Submit(demoRequest(model, model.LayerNames()[i%2], uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	s.Close()
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
		Policy:        Policy{MaxWait: time.Millisecond, QueueCap: 4096},
		Model:         model,
		Selector:      FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:          exec,
		DispatchDepth: 256,
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
