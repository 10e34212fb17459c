package cudart

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/conv"
	"repro/internal/tensor"
	"repro/internal/tune"
)

// TestForwardAllAlgorithmsMatchDirect runs the dispatch shim with each
// algorithm a tune.Choice can carry and checks every one against the CPU
// direct-convolution oracle on the same random problem — the functional
// half of the chooser contract: whatever Select picks, the answer is the
// same convolution.
func TestForwardAllAlgorithmsMatchDirect(t *testing.T) {
	const C, K, N, H, W = 8, 64, 32, 6, 6
	rng := rand.New(rand.NewSource(7))
	in := tensor.New(tensor.CHWN, C, H, W, N)
	for i := range in.Data {
		in.Data[i] = rng.Float32() - 0.5
	}
	flt := tensor.New(tensor.CRSK, C, 3, 3, K)
	for i := range flt.Data {
		flt.Data[i] = rng.Float32() - 0.5
	}

	ref, err := conv.Direct(in, flt, conv.Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}

	tolByAlgo := map[tune.Algorithm]float64{
		tune.AlgoFused:    1e-4, // different summation order than direct
		tune.AlgoGEMM:     1e-4,
		tune.AlgoNonfused: 1e-3, // F(4x4) transforms carry more rounding (Section 8.1)
	}
	for _, algo := range []tune.Algorithm{tune.AlgoFused, tune.AlgoGEMM, tune.AlgoNonfused} {
		out, err := Forward(in, flt, tune.Choice{Algo: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if out.Layout != tensor.KHWN {
			t.Fatalf("%s: output layout %v, want KHWN", algo, out.Layout)
		}
		tol := tolByAlgo[algo]
		worst := 0.0
		for n := 0; n < N; n++ {
			for k := 0; k < K; k++ {
				for y := 0; y < H; y++ {
					for x := 0; x < W; x++ {
						got := float64(out.ImageAt(n, k, y, x))
						want := float64(ref.ImageAt(n, k, y, x))
						if d := math.Abs(got - want); d > worst {
							worst = d
						}
					}
				}
			}
		}
		if worst > tol {
			t.Errorf("%s: max abs error %g exceeds %g", algo, worst, tol)
		}
	}
}

// TestForwardAcceptsEitherLayout checks the fused path takes NCHW/KCRS
// inputs as well as the kernel's CHWN/CRSK.
func TestForwardAcceptsEitherLayout(t *testing.T) {
	const C, K, N, H, W = 8, 64, 32, 4, 4
	rng := rand.New(rand.NewSource(11))
	in := tensor.New(tensor.NCHW, N, C, H, W)
	for i := range in.Data {
		in.Data[i] = rng.Float32() - 0.5
	}
	flt := tensor.New(tensor.KCRS, K, C, 3, 3)
	for i := range flt.Data {
		flt.Data[i] = rng.Float32() - 0.5
	}
	out, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoFused})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := conv.Direct(in, flt, conv.Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < N; n += 7 {
		for k := 0; k < K; k += 13 {
			if d := math.Abs(float64(out.ImageAt(n, k, 1, 2) - ref.ImageAt(n, k, 1, 2))); d > 1e-4 {
				t.Fatalf("n=%d k=%d differs by %g", n, k, d)
			}
		}
	}
}

// TestForwardUnknownAlgo covers the error path.
func TestForwardUnknownAlgo(t *testing.T) {
	in := tensor.New(tensor.CHWN, 8, 4, 4, 32)
	flt := tensor.New(tensor.CRSK, 8, 3, 3, 64)
	if _, err := Forward(in, flt, tune.Choice{Algo: "NO_SUCH_ALGO"}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}
