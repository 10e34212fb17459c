package serve

import (
	"fmt"
	"math"
	"testing"

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
	if want := [4]int{spec.K, spec.H, spec.W, len(images)}; out.Layout != tensor.KHWN || out.Dims != want {
		t.Fatalf("output %v%v, want KHWN%v: the live images only", out.Layout, out.Dims, want)
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
// image's outputs NaN (Inf*0), which must reach its reply exactly as the
// fused kernel's oracle, cudart.WinogradConv, computes them.
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
		out, err := cudart.WinogradConv(AssembleBatch(spec, zero, 32), flt)
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
// each stays bit-identical to cudart.WinogradConv on the original
// weights, and Layer still returns them.
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
		want, err := cudart.WinogradConv(AssembleBatch(spec, [][]float32{req.Image}, 32), origFlt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameBits(t, fmt.Sprintf("step %d reply", step), resp.Output, sliceOutput(spec, want, 0))
	}
	_, again, _ := model.Layer("conv_a")
	requireSameBits(t, "Layer's filter", again.Data, orig)
}
