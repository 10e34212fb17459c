package serve

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/cudart"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// requireSameBits fails unless got and want hold the same float32 bit
// patterns, NaN payloads and signed zeros included.
func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d floats, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// paddedReplies is what a reply held before the executor dropped the
// padding: request i's slot of the whole batchN-image batch through the
// one-shot cudart.Forward.
func paddedReplies(t *testing.T, spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) [][]float32 {
	t.Helper()
	out, err := cudart.Forward(AssembleBatch(spec, images, batchN), flt, ch)
	if err != nil {
		t.Fatal(err)
	}
	replies := make([][]float32, len(images))
	for i := range replies {
		replies[i] = sliceOutput(spec, out, i)
	}
	return replies
}

// checkLive runs images through exec, requires an output of exactly the
// live images, and returns their replies.
func checkLive(t *testing.T, exec Executor, spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) [][]float32 {
	t.Helper()
	out, err := exec.Run(spec, flt, ch, images, batchN)
	if err != nil {
		t.Fatal(err)
	}
	if want := [4]int{len(images), spec.K, spec.H, spec.W}; out.Layout != tensor.NCHW || out.Dims != want {
		t.Fatalf("output %v%v, want NCHW%v: the live images only", out.Layout, out.Dims, want)
	}
	replies := make([][]float32, len(images))
	for i := range replies {
		replies[i] = sliceOutput(spec, out, i)
	}
	return replies
}

var algos = []tune.Algorithm{tune.AlgoFused, tune.AlgoGEMM, tune.AlgoNonfused}

// TestLiveExecutorMatchesPaddedForward: the default executor computes
// and returns only a batch's live images, and each reply is
// bit-identical to its request's slot of the whole zero-padded batch,
// for every algorithm, fill and kernel batch size on both demo layers.
// An all-zero request image is live too. A +Inf weight makes that
// image's outputs NaN (Inf*0), which must reach its reply exactly as
// cudart.Forward's fused path computes them on the padded batch (that
// path is pinned bit for bit to the thread-level Algorithm 1 oracle in
// cudart's tests, non-finite weights included).
func TestLiveExecutorMatchesPaddedForward(t *testing.T) {
	model := DemoModel(12)
	exec := model.Executor()
	for _, name := range model.LayerNames() {
		spec, flt, _ := model.Layer(name)
		images := demoImages(model, name, 32)
		for _, algo := range algos {
			ch := tune.Choice{Algo: algo}
			for _, batchN := range []int{32, 64, 128} {
				for _, filled := range []int{1, 3, 17, 32} {
					t.Run(fmt.Sprintf("%s/%s/n%d/filled%d", name, algo, batchN, filled), func(t *testing.T) {
						t.Parallel() // one layer's prepared weights serve every case at once
						got := checkLive(t, exec, spec, flt, ch, images[:filled], batchN)
						want := paddedReplies(t, spec, flt, ch, images[:filled], batchN)
						for i := range want {
							requireSameBits(t, fmt.Sprintf("reply %d", i), got[i], want[i])
						}
					})
				}
			}
		}
	}

	spec, flt, _ := model.Layer("conv_a")
	imgs := demoImages(model, "conv_a", 2)
	zero := [][]float32{imgs[0], make([]float32, spec.InLen()), imgs[1]}
	t.Run("zero image", func(t *testing.T) {
		for _, algo := range algos {
			ch := tune.Choice{Algo: algo}
			got := checkLive(t, exec, spec, flt, ch, zero, 32)
			want := paddedReplies(t, spec, flt, ch, zero, 32)
			for i := range want {
				requireSameBits(t, fmt.Sprintf("%s reply %d", algo, i), got[i], want[i])
			}
		}
	})
	t.Run("inf weight", func(t *testing.T) {
		flt.FilterSet(5, 3, 1, 1, float32(math.Inf(1)))
		inf := NewModel()
		if err := inf.AddLayer(spec, flt); err != nil {
			t.Fatal(err)
		}
		ch := tune.Choice{Algo: tune.AlgoFused}
		got := checkLive(t, inf.Executor(), spec, flt, ch, zero, 32)
		out, err := cudart.Forward(AssembleBatch(spec, zero, 32).ToLayout(tensor.CHWN), flt, ch)
		if err != nil {
			t.Fatal(err)
		}
		if v := got[1][5*spec.H*spec.W]; v == v {
			t.Fatalf("the zero image's reply holds %v where Inf*0 gives NaN: the probe does not reach a live slot", v)
		}
		for i := range zero {
			requireSameBits(t, fmt.Sprintf("reply %d", i), got[i], sliceOutput(spec, out, i))
		}
	})
}

// demoImages returns n demo request images for layer.
func demoImages(m *Model, layer string, n int) [][]float32 {
	imgs := make([][]float32, n)
	for i := range imgs {
		imgs[i] = demoRequest(m, layer, uint64(100+i)).Image
	}
	return imgs
}

// TestServedWeightsImmuneToMutation: a model serves the weights it was
// given when the layer was added. Rewriting, after NewServer, both the
// tensor passed to AddLayer and the copy Layer returns changes no reply:
// each stays bit-identical to cudart.Forward's fused path on the
// original weights, and Layer still returns them.
func TestServedWeightsImmuneToMutation(t *testing.T) {
	spec := LayerSpec{Name: "conv_a", C: 8, K: 64, H: 6, W: 6}
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: spec.K, C: spec.C, R: 3, S: 3})
	flt.FillRandom(77)
	orig := append([]float32(nil), flt.Data...)
	model := NewModel()
	if err := model.AddLayer(spec, flt); err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Model: model, Selector: FixedSelector{Algo: tune.AlgoFused}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	origFlt := &tensor.Tensor{Layout: flt.Layout, Dims: flt.Dims, Data: orig}

	for step := 0; step < 3; step++ {
		_, copied, _ := model.Layer("conv_a")
		for i := range flt.Data {
			flt.Data[i] = float32(step + 1)
			copied.Data[i] = -float32(step + 1)
		}
		req := demoRequest(model, "conv_a", uint64(50+step))
		resp, err := s.Infer(req)
		if err == nil {
			err = resp.Err
		}
		if err != nil {
			t.Fatal(err)
		}
		want, err := cudart.Forward(AssembleBatch(spec, [][]float32{req.Image}, 32).ToLayout(tensor.CHWN), origFlt, tune.Choice{Algo: tune.AlgoFused})
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("step %d reply", step), resp.Output, sliceOutput(spec, want, 0))
	}
	_, again, _ := model.Layer("conv_a")
	requireSameBits(t, "Layer's filter", again.Data, orig)
}

// batchRig returns a server for model that runs exec (nil: the model's
// default executor) under the fused algorithm, and the queue of layer
// so a test can call execBatch on it directly.
func batchRig(tb testing.TB, model *Model, exec Executor, layer string) (*Server, *queue) {
	tb.Helper()
	s, err := NewServer(Config{Model: model, Selector: FixedSelector{Algo: tune.AlgoFused}, Exec: exec})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s, s.queues[layer]
}

// khwnExec is a custom executor whose output images are not contiguous:
// it returns the default executor's output converted to KHWN.
type khwnExec struct{ Executor }

func (e khwnExec) Run(spec LayerSpec, flt *tensor.Tensor, ch tune.Choice, images [][]float32, batchN int) (*tensor.Tensor, error) {
	out, err := e.Executor.Run(spec, flt, ch, images, batchN)
	if err != nil {
		return nil, err
	}
	return out.ToLayout(tensor.KHWN), nil
}

// floatSpan is the address range a slice's elements occupy.
func floatSpan(s []float32) (lo, hi uintptr) {
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(s)))
	return lo, lo + uintptr(len(s))*unsafe.Sizeof(float32(0))
}

// TestRepliesOwnTheirOutputs: the replies of one batch are runs of the
// executor's output when its images are contiguous (the default, NCHW)
// and strided copies otherwise (a custom KHWN executor). Either way no
// two replies overlap, each has its length as its capacity, and an
// append to one leaves its neighbour as it was; both carry the same
// bits.
func TestRepliesOwnTheirOutputs(t *testing.T) {
	model := DemoModel(21)
	images := demoImages(model, "conv_a", 5)
	var first []Response // the NCHW run's replies
	for _, tc := range []struct {
		name string
		exec Executor
	}{{"nchw", model.Executor()}, {"khwn", khwnExec{model.Executor()}}} {
		t.Run(tc.name, func(t *testing.T) {
			s, q := batchRig(t, model, tc.exec, "conv_a")
			reqs := make([]*Request, len(images))
			for i, img := range images {
				reqs[i] = &Request{Image: img}
			}
			resps := s.execBatch(q, reqs, 32)
			for i, r := range resps {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				if len(r.Output) != q.spec.OutLen() || cap(r.Output) != len(r.Output) {
					t.Fatalf("reply %d: len %d cap %d, want both %d", i, len(r.Output), cap(r.Output), q.spec.OutLen())
				}
				lo, hi := floatSpan(r.Output)
				for j, o := range resps[:i] {
					if olo, ohi := floatSpan(o.Output); lo < ohi && olo < hi {
						t.Fatalf("replies %d and %d overlap", j, i)
					}
				}
				if i > 0 && tc.name == "nchw" {
					if _, prev := floatSpan(resps[i-1].Output); lo != prev {
						t.Fatalf("reply %d does not follow reply %d in the batch output: it was copied", i, i-1)
					}
				}
			}
			neighbour := append([]float32(nil), resps[1].Output...)
			_ = append(resps[0].Output, 42)
			requireSameBits(t, "reply 1 after an append to reply 0", resps[1].Output, neighbour)
			if first == nil {
				first = resps
				return
			}
			for i := range resps {
				requireSameBits(t, fmt.Sprintf("reply %d", i), resps[i].Output, first[i].Output)
			}
		})
	}
}

// warmUp runs the benchmark rig's warm-up on s: for each sweet spot and
// layer, one batch of all-zero images, every request submitted at once
// so the coalescer cuts it whole.
func warmUp(tb testing.TB, s *Server, m *Model) {
	for _, n := range SweetSpots() {
		for _, name := range m.LayerNames() {
			spec, _, _ := m.Layer(name)
			img := make([]float32, spec.InLen())
			chans := make([]<-chan Response, n)
			for i := range chans {
				var err error
				if chans[i], err = s.Submit(&Request{Device: s.cfg.Device.Name, Layer: name, Image: img}); err != nil {
					tb.Fatal(err)
				}
			}
			for _, ch := range chans {
				if resp := <-ch; resp.Err != nil {
					tb.Fatal(resp.Err)
				}
			}
		}
	}
}

// BenchmarkWarmup times a server's set-up as the benchmark rig runs it:
// a new server with the default selector and executor, then warmUp. No
// image is live, so it measures assembly, allocation and replies alone.
func BenchmarkWarmup(b *testing.B) {
	model := DemoModel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := NewServer(Config{Model: model})
		if err != nil {
			b.Fatal(err)
		}
		warmUp(b, s, model)
		s.Close()
	}
}

// TestWarmupBatchAllocsPinned: the N=128 conv_a warm-up batch, 128 zero
// images through the default executor, allocates its input tensor, its
// output tensor and a small constant. Its replies are runs of the
// output: a copy per reply would add a whole second output.
func TestWarmupBatchAllocsPinned(t *testing.T) {
	const batchN = 128
	model := DemoModel(1)
	s, q := batchRig(t, model, nil, "conv_a")
	img := make([]float32, q.spec.InLen())
	reqs := make([]*Request, batchN)
	for i := range reqs {
		reqs[i] = &Request{Image: img}
	}
	run := func() {
		for _, r := range s.execBatch(q, reqs, batchN) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	run()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	const slack = 16 << 10
	tensors := batchN * (q.spec.InLen() + q.spec.OutLen()) * int(unsafe.Sizeof(float32(0)))
	b := int(after.TotalAlloc-before.TotalAlloc) / runs
	if b > tensors+slack {
		t.Errorf("N=%d batch: %d B/op, budget %d (input and output tensors %d + %d)", batchN, b, tensors+slack, tensors, slack)
	}
	const budget = 8
	n := testing.AllocsPerRun(runs, run)
	if n > budget {
		t.Errorf("N=%d batch: %v allocs/op, budget %d", batchN, n, budget)
	}
	t.Logf("N=%d batch: %d B/op (tensors %d), %v allocs/op", batchN, b, tensors, n)
}
