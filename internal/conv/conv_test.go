package conv

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randomProblem(seed uint64, s tensor.Shape4, k int, layout tensor.Layout) (*tensor.Tensor, *tensor.Tensor) {
	in := tensor.NewImage(layout, s)
	in.FillRandom(seed)
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: k, C: s.C, R: 3, S: 3})
	flt.FillRandom(seed + 1)
	return in, flt
}

func TestDirectKnownValue(t *testing.T) {
	// 1x1x3x3 input of all ones, single 3x3 filter of all ones, pad 1:
	// center output = 9, corner = 4, edge-center = 6.
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 1, H: 3, W: 3})
	for i := range in.Data {
		in.Data[i] = 1
	}
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 1, R: 3, S: 3})
	for i := range flt.Data {
		flt.Data[i] = 1
	}
	out, err := Direct(in, flt, Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, out.Data[i], want[i])
		}
	}
}

func TestDirectIsCrossCorrelation(t *testing.T) {
	// An asymmetric filter distinguishes correlation from convolution:
	// filter with a single 1 at (r=0, s=0), pad=0 must shift toward the
	// top-left sample, i.e. out[y][x] = in[y][x].
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 1, H: 4, W: 4})
	for i := range in.Data {
		in.Data[i] = float32(i%17) * 0.125 // a readable ramp
	}
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 1, R: 3, S: 3})
	flt.Set(0, 0, 0, 0, 1)
	out, err := Direct(in, flt, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if got, want := out.At(0, 0, y, x), in.At(0, 0, y, x); got != want {
				t.Fatalf("out(%d,%d) = %v, want %v", y, x, got, want)
			}
		}
	}
}

func TestChannelMismatchError(t *testing.T) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 2, H: 4, W: 4})
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 3, R: 3, S: 3})
	if _, err := Direct(in, flt, Params{Pad: 1}); err == nil {
		t.Fatal("expected channel-mismatch error")
	}
}

func TestEmptyOutputError(t *testing.T) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 1, H: 2, W: 2})
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 1, R: 3, S: 3})
	if _, err := Direct(in, flt, Params{}); err == nil {
		t.Fatal("expected empty-output error")
	}
}

func TestDirectLayoutAgnostic(t *testing.T) {
	s := tensor.Shape4{N: 2, C: 3, H: 6, W: 6}
	inN, flt := randomProblem(11, s, 4, tensor.NCHW)
	inC := inN.ToLayout(tensor.CHWN)
	fltC := flt.ToFilterLayout(tensor.CRSK)
	a, err := Direct(inN, flt, Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Direct(inC, fltC, Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxRelDiff(a, b); d != 0 {
		t.Fatalf("layout changed result by %v", d)
	}
}

func TestDirectParallelMatchesDirect(t *testing.T) {
	s := tensor.Shape4{N: 3, C: 5, H: 9, W: 7}
	in, flt := randomProblem(12, s, 6, tensor.NCHW)
	a, err := Direct(in, flt, Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := DirectParallel(in, flt, Params{Pad: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.MaxRelDiff(a, b); d != 0 {
		t.Fatalf("parallel differs by %v", d)
	}
}

func TestIm2colMatchesDirect(t *testing.T) {
	for _, tc := range []struct {
		s tensor.Shape4
		k int
		p Params
	}{
		{tensor.Shape4{N: 2, C: 3, H: 8, W: 8}, 4, Params{Pad: 1}},
		{tensor.Shape4{N: 1, C: 1, H: 5, W: 7}, 2, Params{}},
	} {
		in, flt := randomProblem(13, tc.s, tc.k, tensor.NCHW)
		want, err := Direct(in, flt, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Im2col(in, flt, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxRelDiff(want, got); d > 1e-4 {
			t.Fatalf("%+v: im2col differs by %v", tc, d)
		}
	}
}

// Property: both algorithms agree with the direct reference on random
// small problems.
func TestAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed uint64, nRaw, cRaw, kRaw, hRaw uint8, padRaw uint8) bool {
		s := tensor.Shape4{
			N: int(nRaw%3) + 1, C: int(cRaw%4) + 1,
			H: int(hRaw%8) + 4, W: int(hRaw%8) + 4,
		}
		k := int(kRaw%4) + 1
		p := Params{Pad: int(padRaw % 2)}
		in, flt := randomProblem(seed, s, k, tensor.NCHW)
		want, err := Direct(in, flt, p)
		if err != nil {
			return false
		}
		g1, err := Im2col(in, flt, p)
		if err != nil {
			return false
		}
		return tensor.MaxRelDiff(want, g1) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
