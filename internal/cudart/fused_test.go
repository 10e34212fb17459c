package cudart

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tune"
)

// fusedCase is one convolution shape for the fused-path tests and
// benchmarks. edit, when set, rewrites the random problem before use.
type fusedCase struct {
	name          string
	C, K, N, H, W int
	edit          func(in, flt *tensor.Tensor)
}

// The serving demo model's two layers (serve.DemoModel) and a ResNet-like
// layer in the paper's C,K >= 64 regime.
var (
	convA    = fusedCase{name: "conv_a", C: 8, K: 64, N: 32, H: 6, W: 6}
	convB    = fusedCase{name: "conv_b", C: 16, K: 64, N: 32, H: 4, W: 4}
	resnet64 = fusedCase{name: "c64k64_14x14", C: 64, K: 64, N: 32, H: 14, W: 14}
)

// filled returns fc with every image from slot n on set to +0, the batch
// serve.AssembleBatch builds around n requests.
func (fc fusedCase) filled(n int) fusedCase {
	fc.name = fmt.Sprintf("%s_filled%d", fc.name, n)
	edit := fc.edit
	fc.edit = func(in, flt *tensor.Tensor) {
		if edit != nil {
			edit(in, flt)
		}
		for b := n; b < fc.N; b++ {
			fillImage(in, b, 0)
		}
	}
	return fc
}

// fillImage sets every input of image n to v.
func fillImage(in *tensor.Tensor, n int, v float32) {
	s := in.ImageShape()
	for c := 0; c < s.C; c++ {
		for h := 0; h < s.H; h++ {
			for w := 0; w < s.W; w++ {
				in.ImageSet(n, c, h, w, v)
			}
		}
	}
}

// problem builds a random input and filter in the layouts given.
func (fc fusedCase) problem(inLayout, fltLayout tensor.Layout) (in, flt *tensor.Tensor) {
	in = tensor.NewImage(inLayout, tensor.Shape4{N: fc.N, C: fc.C, H: fc.H, W: fc.W})
	in.FillRandom(uint64(fc.C*1000 + fc.K + fc.N))
	flt = tensor.NewFilter(fltLayout, tensor.FilterShape{K: fc.K, C: fc.C, R: 3, S: 3})
	flt.FillRandom(uint64(fc.K*1000 + fc.C))
	if fc.edit != nil {
		fc.edit(in, flt)
	}
	return in, flt
}

// requireSameBits fails unless got and want hold the same float32 bit
// patterns, NaN payloads and signed zeros included.
func requireSameBits(t *testing.T, got, want *tensor.Tensor) {
	t.Helper()
	if got.Layout != want.Layout || got.Dims != want.Dims {
		t.Fatalf("shape %v%v, want %v%v", got.Layout, got.Dims, want.Layout, want.Dims)
	}
	diff, first := 0, -1
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			if first < 0 {
				first = i
			}
			diff++
		}
	}
	if diff > 0 {
		t.Fatalf("%d/%d elements differ in bits; first at %d: %v, want %v",
			diff, len(want.Data), first, got.Data[first], want.Data[first])
	}
}

// TestForwardFusedMatchesWinogradConvBitwise pins the fused path's
// contract with its oracle: Forward's blocked CPU Algorithm 1 and the
// thread-for-thread WinogradConv sum the same products in the same order,
// so every output bit agrees — on the demo layers at every served batch
// size, on a partial-tile 7x7 layer, and on NCHW/KCRS inputs, whose
// output is NCHW and is compared image by image. The zero-padded batches check the all-zero image skip: a skipped image's
// +0 output, padded slots included, must be the oracle's, a -0 image
// between live ones is skipped too, and a +Inf weight turns the skip off
// so the padded slots carry the oracle's Inf*0 NaNs.
func TestForwardFusedMatchesWinogradConvBitwise(t *testing.T) {
	cases := []fusedCase{{name: "c64k128_7x7", C: 64, K: 128, N: 32, H: 7, W: 7}}
	for _, n := range []int{32, 64, 128} {
		for _, fc := range []fusedCase{convA, convB} {
			fc.N = n
			fc.name = fmt.Sprintf("%s_n%d", fc.name, n)
			cases = append(cases, fc)
		}
	}
	for _, n := range []int{0, 1, 17, 31} {
		cases = append(cases, convA.filled(n))
	}
	negZero := convA
	negZero.name = "conv_a_negzero"
	negZero.edit = func(in, _ *tensor.Tensor) { fillImage(in, 1, float32(math.Copysign(0, -1))) }
	infWeight := convA
	infWeight.name = "conv_a_infweight"
	infWeight.edit = func(_, flt *tensor.Tensor) { flt.FilterSet(5, 3, 1, 1, float32(math.Inf(1))) }
	infWeight = infWeight.filled(1)
	convB128 := convB
	convB128.N, convB128.name = 128, "conv_b_n128"
	cases = append(cases,
		convB128.filled(1),
		negZero,
		fusedCase{name: "odd5x7", C: 8, K: 64, N: 32, H: 5, W: 7}.filled(3),
		infWeight,
	)
	for _, fc := range cases {
		for _, layouts := range [][2]tensor.Layout{{tensor.CHWN, tensor.CRSK}, {tensor.NCHW, tensor.KCRS}} {
			t.Run(fc.name+"/"+layouts[0].String(), func(t *testing.T) {
				in, flt := fc.problem(layouts[0], layouts[1])
				got, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoFused})
				if err != nil {
					t.Fatal(err)
				}
				want, err := WinogradConv(in.ToLayout(tensor.CHWN), flt.ToFilterLayout(tensor.CRSK))
				if err != nil {
					t.Fatal(err)
				}
				if fc.name == infWeight.name {
					if v := want.ImageAt(fc.N-1, 5, 2, 2); v == v {
						t.Fatalf("oracle gave %v in a padded slot, want NaN: the probe does not disable the skip", v)
					}
				}
				if got.Layout != outLayout(in.Layout) {
					t.Fatalf("%v input gave %v output, want %v", in.Layout, got.Layout, outLayout(in.Layout))
				}
				requireSameBits(t, got.ToLayout(tensor.KHWN), want)
			})
		}
	}
}

// outLayout is the output layout Forward gives input of layout in.
func outLayout(in tensor.Layout) tensor.Layout {
	if in == tensor.NCHW {
		return tensor.NCHW
	}
	return tensor.KHWN
}

// TestForwardLayoutsMatchBitwise: on every algorithm, prepared weights
// give NCHW output for NCHW input and KHWN for CHWN, with every image's
// output bits the same in both, since the host reads either layout
// through strides in the same summation order. The batch holds +0
// images (the fused path skips them), a -0 image between live ones,
// and, in its second case, a +Inf weight whose Inf*0 NaNs turn the skip
// off.
func TestForwardLayoutsMatchBitwise(t *testing.T) {
	negZero := convA.filled(17)
	edit := negZero.edit
	negZero.edit = func(in, flt *tensor.Tensor) {
		edit(in, flt)
		fillImage(in, 3, float32(math.Copysign(0, -1)))
	}
	infWeight := negZero
	infWeight.name += "_infweight"
	infWeight.edit = func(in, flt *tensor.Tensor) {
		negZero.edit(in, flt)
		flt.FilterSet(5, 3, 1, 1, float32(math.Inf(1)))
	}
	for _, fc := range []fusedCase{negZero, infWeight} {
		chwn, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		nchw := chwn.ToLayout(tensor.NCHW)
		w, err := Prepare(flt)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []tune.Algorithm{tune.AlgoFused, tune.AlgoGEMM, tune.AlgoNonfused} {
			t.Run(fc.name+"/"+string(algo), func(t *testing.T) {
				ch := tune.Choice{Algo: algo}
				byImage, err := w.Forward(chwn, fc.N, ch)
				if err != nil {
					t.Fatal(err)
				}
				byBatch, err := w.Forward(nchw, fc.N, ch)
				if err != nil {
					t.Fatal(err)
				}
				if byImage.Layout != tensor.KHWN || byBatch.Layout != tensor.NCHW {
					t.Fatalf("CHWN gave %v and NCHW gave %v, want KHWN and NCHW", byImage.Layout, byBatch.Layout)
				}
				if v := byImage.ImageAt(fc.N-1, 5, 2, 2); (fc.name == infWeight.name) != (v != v) {
					t.Fatalf("zero image %d holds %v at channel 5: the +Inf weight probe misfired", fc.N-1, v)
				}
				requireSameBits(t, byBatch.ToLayout(tensor.KHWN), byImage)
			})
		}
	}
}

// TestForwardFusedNonFiniteMatchesOracle feeds one +Inf pixel through
// filters some of which are all zero, so the oracle multiplies Inf by
// exact zeros: the served path must reproduce the resulting NaN/Inf
// pattern bit for bit, not skip the zero products.
func TestForwardFusedNonFiniteMatchesOracle(t *testing.T) {
	in, flt := convA.problem(tensor.CHWN, tensor.CRSK)
	in.ImageSet(3, 2, 1, 4, float32(math.Inf(1)))
	for k := 0; k < convA.K; k += 5 {
		for c := 0; c < convA.C; c++ {
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					flt.FilterSet(k, c, r, s, 0)
				}
			}
		}
	}
	got, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoFused})
	if err != nil {
		t.Fatal(err)
	}
	want, err := WinogradConv(in, flt)
	if err != nil {
		t.Fatal(err)
	}
	nan := 0
	for _, v := range want.Data {
		if v != v {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("the oracle produced no NaN: the probe does not exercise Inf*0")
	}
	requireSameBits(t, got, want)
}

// TestForwardFusedShapeContract: the fused path still rejects every shape
// the SASS kernel cannot run, with the kernel generator's error text,
// whether the batch is whole or only its live image is computed: the
// prepared path checks the kernel's batch N, not the live count. A live
// count above the batch is an error on every algorithm.
func TestForwardFusedShapeContract(t *testing.T) {
	fused := tune.Choice{Algo: tune.AlgoFused}
	for _, fc := range []fusedCase{
		{name: "n31", C: 8, K: 64, N: 31, H: 4, W: 4},
		{name: "k32", C: 8, K: 32, N: 32, H: 4, W: 4},
		{name: "c4", C: 4, K: 64, N: 32, H: 4, W: 4},
	} {
		want := fmt.Sprintf("cudart: needs N%%32==0, K%%64==0, C%%8==0 (got N=%d K=%d C=%d)", fc.N, fc.K, fc.C)
		in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		if _, err := Forward(in, flt, fused); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", fc.name, err, want)
		}
		lone, w, err := fc.lone()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Forward(lone, fc.N, fused); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s, one live image: err = %v, want %q", fc.name, err, want)
		}
	}
	in, w, err := convA.lone()
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []tune.Algorithm{tune.AlgoFused, tune.AlgoGEMM, tune.AlgoNonfused} {
		if _, err := w.Forward(in, 0, tune.Choice{Algo: algo}); err == nil || !strings.Contains(err.Error(), "do not fit a batch of 0") {
			t.Errorf("%s: one live image in a batch of 0: err = %v", algo, err)
		}
	}
}

// lone returns fc as one served request: a single random image, the
// live part of a batch the kernel runs at fc.N, and prepared weights.
func (fc fusedCase) lone() (*tensor.Tensor, *Weights, error) {
	fc.N = 1
	in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
	w, err := Prepare(flt)
	return in, w, err
}

// TestForwardFusedAllocsPinned: a lone request through prepared weights
// allocates only its one-image output, the live-image list and the
// par.For workers: 4 allocs/op.
func TestForwardFusedAllocsPinned(t *testing.T) {
	for _, fc := range []fusedCase{convA, convB} {
		in, w, err := fc.lone()
		if err != nil {
			t.Fatal(err)
		}
		forward := func() {
			if _, err := w.Forward(in, fc.N, tune.Choice{Algo: tune.AlgoFused}); err != nil {
				t.Fatal(err)
			}
		}
		forward()
		if n := testing.AllocsPerRun(20, forward); n > 4 {
			t.Errorf("%s: prepared lone-request Forward: %v allocs/op, want <= 4", fc.name, n)
		}
	}
}

// BenchmarkForward times every algorithm on the host, per shape: the
// serving demo's two layers, full and as a lone request zero-padded to
// N=32 (filled1), and a ResNet-like C=K=64 layer, all through the
// one-shot Forward, which transforms the filter on every call; then
// the lone request as the server runs it (live1): prepared weights, the
// one live image of an N=32 batch. The fused live1 rows are
// internal/perf's forward/conv_a_live1/fused and conv_b_live1/fused,
// where BENCH_sim.json gates them.
func BenchmarkForward(b *testing.B) {
	algos := []struct {
		name string
		algo tune.Algorithm
	}{{"fused", tune.AlgoFused}, {"gemm", tune.AlgoGEMM}, {"nonfused", tune.AlgoNonfused}}
	for _, fc := range []fusedCase{convA, convA.filled(1), convB, convB.filled(1), resnet64} {
		in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		for _, algo := range algos {
			b.Run(fc.name+"/"+algo.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Forward(in, flt, tune.Choice{Algo: algo.algo}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	for _, fc := range []fusedCase{convA, convB} {
		in, w, err := fc.lone()
		if err != nil {
			b.Fatal(err)
		}
		for _, algo := range algos[1:] { // not fused: see above
			b.Run(fc.name+"_live1/"+algo.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := w.Forward(in, fc.N, tune.Choice{Algo: algo.algo}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
