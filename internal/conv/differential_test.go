package conv

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
	"repro/internal/winograd"
)

// winogradDiff compares a Direct result (NCHW) against a winograd result
// of NCHW input (NCHW too) element-wise and returns the max relative
// difference.
func winogradDiff(t *testing.T, direct, wino *tensor.Tensor) float64 {
	t.Helper()
	n, k := direct.Dims[0], direct.Dims[1]
	oh, ow := direct.Dims[2], direct.Dims[3]
	if wino.Layout != tensor.NCHW || wino.Dims != direct.Dims {
		t.Fatalf("winograd output %v%v, want NCHW%v", wino.Layout, wino.Dims, direct.Dims)
	}
	var maxDiff float64
	for ni := 0; ni < n; ni++ {
		for ki := 0; ki < k; ki++ {
			for y := 0; y < oh; y++ {
				for x := 0; x < ow; x++ {
					want := float64(direct.At(ni, ki, y, x))
					got := float64(wino.At(ni, ki, y, x))
					d := math.Abs(got - want)
					if mag := math.Abs(want); mag > 1 {
						d /= mag
					}
					if d > maxDiff {
						maxDiff = d
					}
				}
			}
		}
	}
	return maxDiff
}

// winogradTol is the acceptance bound for F(2x2,3x3) against the direct
// oracle. The transform matrices are exact in fp32 (entries 0, ±1, ±1/2),
// so the error is pure accumulation-order noise; the paper reports
// max_err ~1e-4 for its fp32 F(4x4) kernels (Table 5) and F(2x2) is
// strictly better conditioned.
const winogradTol = 1e-4

// TestDifferentialAlgorithms cross-checks every convolution implementation
// in the repository on randomized shapes and pads:
//
//	Direct (oracle) vs Im2col          — all shapes/pads
//	Direct vs winograd                 — 3x3, fused F(2x2) and non-fused
//	                                     F(4x4), including block
//	                                     remainders and N=1
//
// Shapes are drawn from a seeded generator so failures reproduce; edge
// cases the blocking logic must survive (N=1, C/K not divisible by the
// bc/bk cache blocks) are forced every few iterations rather than left to
// chance.
func TestDifferentialAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260806))
	const rounds = 40
	for round := 0; round < rounds; round++ {
		s := tensor.Shape4{
			N: rng.Intn(4) + 1,
			C: rng.Intn(12) + 1,
			H: rng.Intn(12) + 4,
			W: rng.Intn(12) + 4,
		}
		k := rng.Intn(12) + 1
		fr, fs := 3, 3
		p := Params{Pad: rng.Intn(2)}
		switch round % 4 {
		case 1:
			// Batch-of-one with channel counts straddling the default
			// Winograd cache blocks (bc=8, bk=64 ⇒ remainders 9%8, 65%64).
			s.N, s.C, k = 1, 9, 65
			p = Params{Pad: 1}
		case 2:
			// Non-square input, no padding, rectangular filter for the
			// baselines (Winograd is skipped automatically: needs 3x3).
			s.H += 3
			fr, fs = rng.Intn(3)+1, rng.Intn(3)+1
		}
		in, flt := randomProblem(uint64(round)*7919+1, s, k, tensor.NCHW)
		if fr != 3 || fs != 3 {
			flt = tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: k, C: s.C, R: fr, S: fs})
			flt.FillRandom(uint64(round)*7919 + 2)
		}
		want, err := Direct(in, flt, p)
		if err != nil {
			// Geometry produced an empty output; not a differential case.
			continue
		}

		got, err := Im2col(in, flt, p)
		if err != nil {
			t.Fatalf("round %d %+v k=%d p=%+v: im2col: %v", round, s, k, p, err)
		}
		if d := tensor.MaxRelDiff(want, got); d > 1e-4 {
			t.Fatalf("round %d %+v k=%d p=%+v: im2col differs by %v", round, s, k, p, d)
		}

		if fr != 3 || fs != 3 {
			continue
		}
		for _, algo := range []struct {
			name    string
			prepare func(*tensor.Tensor) (winograd.Filter, error)
			tol     float64
		}{
			{"F2-fused", winograd.PrepareFused, winogradTol},
			// F(4x4) transform matrices contain non-representable
			// rationals; the paper's own fp32 bound (Table 5).
			{"F4-nonfused", winograd.PrepareNonFused, 5e-4},
		} {
			f, err := algo.prepare(flt)
			if err != nil {
				t.Fatalf("round %d %+v k=%d: winograd %s: %v", round, s, k, algo.name, err)
			}
			procs := runtime.GOMAXPROCS(1) // one worker per par.For loop
			wout, err := winograd.Conv(in, &f, p.Pad)
			runtime.GOMAXPROCS(procs)
			if err != nil {
				t.Fatalf("round %d %+v k=%d pad=%d: winograd %s: %v", round, s, k, p.Pad, algo.name, err)
			}
			if d := winogradDiff(t, want, wout); d > algo.tol {
				t.Fatalf("round %d %+v k=%d pad=%d: winograd %s differs by %v (tol %v)",
					round, s, k, p.Pad, algo.name, d, algo.tol)
			}
		}
	}
}
