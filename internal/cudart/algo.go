package cudart

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/tensor"
	"repro/internal/tune"
	"repro/internal/winograd"
)

// Forward is the runtime's algorithm-dispatch shim — the consumer of the
// tuner's per-layer verdicts, shaped like cuDNN's
// cudnnConvolutionForward after cudnnFindConvolutionForwardAlgorithm:
// the caller obtains a tune.Choice for its (device, problem) and Forward
// runs that algorithm on this runtime's implementations.
//
//   - FUSED_WINOGRAD runs internal/winograd's blocked CPU Algorithm 1
//     (bk=64/bn=32/bc=8, F(2x2,3x3)) under the SASS kernel's shape
//     contract. Its outputs are bit-identical to WinogradConv, the
//     thread-for-thread model kept as the test oracle. The tuned
//     kernels.Config travels with the Choice for the SASS path; the
//     functional model here is config-independent, so every tuned
//     config computes the same bits.
//   - IMPLICIT_PRECOMP_GEMM runs the GEMM-style lowering (conv.Im2col).
//   - WINOGRAD_NONFUSED runs the non-fused F(4x4,3x3) implementation
//     with its global-workspace round-trip (winograd.Conv2D).
//
// in may be NCHW or CHWN, flt KCRS or CRSK; the output is always KHWN
// (the kernel's native layout), whatever algorithm ran, with pad fixed
// at 1 like the rest of the reproduction.
func Forward(in, flt *tensor.Tensor, ch tune.Choice) (*tensor.Tensor, error) {
	switch ch.Algo {
	case tune.AlgoFused:
		if err := checkFusedShape(in.ImageShape(), flt.FilterShapeOf()); err != nil {
			return nil, err
		}
		return winograd.Conv2D(in, flt, 1, winograd.Options{Variant: winograd.F2x2})
	case tune.AlgoGEMM:
		out, err := conv.Im2col(in, flt, conv.Params{Pad: 1})
		if err != nil {
			return nil, err
		}
		return out.ToLayout(tensor.KHWN), nil
	case tune.AlgoNonfused:
		return winograd.Conv2D(in, flt, 1, winograd.Options{Variant: winograd.F4x4, NonFused: true})
	default:
		return nil, fmt.Errorf("cudart: unknown algorithm %q", ch.Algo)
	}
}
