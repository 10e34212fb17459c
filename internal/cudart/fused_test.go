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
// benchmarks.
type fusedCase struct {
	name          string
	C, K, N, H, W int
}

// The serving demo model's two layers (serve.DemoModel) and a ResNet-like
// layer in the paper's C,K >= 64 regime.
var (
	convA    = fusedCase{"conv_a", 8, 64, 32, 6, 6}
	convB    = fusedCase{"conv_b", 16, 64, 32, 4, 4}
	resnet64 = fusedCase{"c64k64_14x14", 64, 64, 32, 14, 14}
)

// problem builds a random input and filter in the layouts given.
func (fc fusedCase) problem(inLayout, fltLayout tensor.Layout) (in, flt *tensor.Tensor) {
	in = tensor.NewImage(inLayout, tensor.Shape4{N: fc.N, C: fc.C, H: fc.H, W: fc.W})
	in.FillRandom(uint64(fc.C*1000 + fc.K + fc.N))
	flt = tensor.NewFilter(fltLayout, tensor.FilterShape{K: fc.K, C: fc.C, R: 3, S: 3})
	flt.FillRandom(uint64(fc.K*1000 + fc.C))
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
// size, on a partial-tile 7x7 layer, and on NCHW/KCRS inputs.
func TestForwardFusedMatchesWinogradConvBitwise(t *testing.T) {
	cases := []fusedCase{{"c64k128_7x7", 64, 128, 32, 7, 7}}
	for _, n := range []int{32, 64, 128} {
		for _, fc := range []fusedCase{convA, convB} {
			fc.N = n
			fc.name = fmt.Sprintf("%s_n%d", fc.name, n)
			cases = append(cases, fc)
		}
	}
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
				requireSameBits(t, got, want)
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
// the SASS kernel cannot run, with the kernel generator's error text.
func TestForwardFusedShapeContract(t *testing.T) {
	for _, fc := range []fusedCase{
		{"n31", 8, 64, 31, 4, 4},
		{"k32", 8, 32, 32, 4, 4},
		{"c4", 4, 64, 32, 4, 4},
	} {
		in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		_, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoFused})
		want := fmt.Sprintf("cudart: needs N%%32==0, K%%64==0, C%%8==0 (got N=%d K=%d C=%d)", fc.N, fc.K, fc.C)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", fc.name, err, want)
		}
	}
}

// BenchmarkForward times every algorithm Forward dispatches on the host,
// per shape: the serving demo's two layers and a ResNet-like C=K=64 layer.
func BenchmarkForward(b *testing.B) {
	for _, fc := range []fusedCase{convA, convB, resnet64} {
		in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		for _, algo := range []struct {
			name string
			algo tune.Algorithm
		}{{"fused", tune.AlgoFused}, {"gemm", tune.AlgoGEMM}, {"nonfused", tune.AlgoNonfused}} {
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
}
