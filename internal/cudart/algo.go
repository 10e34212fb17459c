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
//     with its global-workspace round-trip (winograd.ConvTransformed).
//
// Both Winograd algorithms take flt's transform (winograd.TransformFilter,
// the paper's FX kernel) from a memo shared by all callers, so a served
// layer's weights are transformed once, not on every batch. The memo is
// keyed by flt's layout, dims and exact bits, and every hit is confirmed
// bit for bit against a stored copy of the weights: a filter mutated in
// place, or differing only in a ±0 or a NaN payload, is transformed
// afresh. It keeps no reference to flt and holds at most
// filterMemoFloats floats, evicting its oldest entries first.
// WinogradConv still transforms on every call.
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
		return forwardWinograd(in, flt, winograd.Options{Variant: winograd.F2x2})
	case tune.AlgoGEMM:
		out, err := conv.Im2col(in, flt, conv.Params{Pad: 1})
		if err != nil {
			return nil, err
		}
		return out.ToLayout(tensor.KHWN), nil
	case tune.AlgoNonfused:
		return forwardWinograd(in, flt, winograd.Options{Variant: winograd.F4x4, NonFused: true})
	default:
		return nil, fmt.Errorf("cudart: unknown algorithm %q", ch.Algo)
	}
}

// forwardWinograd convolves in with flt's memoized transform.
func forwardWinograd(in, flt *tensor.Tensor, opt winograd.Options) (*tensor.Tensor, error) {
	f, err := filterTransforms.transform(flt, opt)
	if err != nil {
		return nil, err
	}
	return winograd.ConvTransformed(in, f, 1, opt)
}
