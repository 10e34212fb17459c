// Package cudart is the runtime's algorithm-dispatch shim: Prepare,
// Weights and Forward run a tune.Choice's convolution algorithm on this
// reproduction's CPU implementations, the way cuDNN's
// cudnnConvolutionForward runs the algorithm its finder picked. The
// package's tests hold the thread-level oracle: the paper's Algorithm 1
// expressed thread-for-thread at the CUDA-C level on a goroutine-per-
// thread execution model (the role the paper's CUDA prototype played
// before the TuringAs rewrite), against which the fused path is checked
// bit for bit.
package cudart

import (
	"fmt"

	"repro/internal/conv"
	"repro/internal/tensor"
	"repro/internal/tune"
	"repro/internal/winograd"
)

// Weights is a filter prepared for inference, where the weights do not
// change between batches: a private copy of the filter plus both of its
// Winograd transforms (the paper's separate FX kernel), computed once by
// Prepare. No caller holds the tensor the transforms were computed from,
// so they cannot go stale. A Weights is immutable and safe for
// concurrent use.
type Weights struct {
	flt             *tensor.Tensor
	fused, nonFused winograd.Filter // F(2x2,3x3) for FUSED, F(4x4,3x3) for NONFUSED
}

// Prepare copies flt (KCRS or CRSK, 3x3) and computes its transforms.
func Prepare(flt *tensor.Tensor) (*Weights, error) {
	w := &Weights{flt: clone(flt)}
	var err error
	if w.fused, err = winograd.PrepareFused(w.flt); err != nil {
		return nil, err
	}
	if w.nonFused, err = winograd.PrepareNonFused(w.flt); err != nil {
		return nil, err
	}
	return w, nil
}

// Filter returns a copy of the weights w was prepared from.
func (w *Weights) Filter() *tensor.Tensor { return clone(w.flt) }

func clone(t *tensor.Tensor) *tensor.Tensor {
	return &tensor.Tensor{Layout: t.Layout, Dims: t.Dims, Data: append([]float32(nil), t.Data...)}
}

// Forward is the runtime's algorithm-dispatch shim — the consumer of the
// tuner's per-layer verdicts, shaped like cuDNN's
// cudnnConvolutionForward after cudnnFindConvolutionForwardAlgorithm:
// the caller obtains a tune.Choice for its (device, problem) and Forward
// runs that algorithm on this runtime's implementations. It is one-shot:
// it prepares flt, then runs Weights.Forward on the whole batch, so it
// pays the filter transform on every call. It transforms only for ch's
// algorithm and keeps no copy of flt, since the weights do not outlive
// the call.
//
// in may be NCHW or CHWN, flt KCRS or CRSK, with pad fixed at 1 like
// the rest of the reproduction. On every algorithm the output layout
// follows the input's: NCHW for NCHW, the kernel's native KHWN for CHWN.
func Forward(in, flt *tensor.Tensor, ch tune.Choice) (*tensor.Tensor, error) {
	w := &Weights{flt: flt}
	var err error
	switch ch.Algo {
	case tune.AlgoFused:
		w.fused, err = winograd.PrepareFused(flt)
	case tune.AlgoNonfused:
		w.nonFused, err = winograd.PrepareNonFused(flt)
	}
	if err != nil {
		return nil, err
	}
	return w.Forward(in, in.ImageShape().N, ch)
}

// Forward runs ch's algorithm on in, the live images of a batch that the
// kernel runs at batchN images. The slots past in's N would hold zero
// padding whose outputs nobody reads, so they are neither allocated nor
// computed: the output, laid out as Forward's, has in's N images. Every
// image is convolved independently, so each output is bit-identical to
// its slot of the padded batch's.
//
//   - FUSED_WINOGRAD runs internal/winograd's blocked CPU Algorithm 1
//     (bk=64/bn=32/bc=8, F(2x2,3x3)) under the SASS kernel's shape
//     contract, checked against batchN. Its outputs are bit-identical
//     to WinogradConv, the thread-for-thread model in this package's
//     tests. The tuned kernels.Config travels with the Choice for the
//     SASS path; the functional model here is config-independent, so
//     every tuned config computes the same bits.
//   - IMPLICIT_PRECOMP_GEMM runs the GEMM-style lowering (conv.Im2col).
//   - WINOGRAD_NONFUSED runs the non-fused F(4x4,3x3) implementation
//     with its global-workspace round-trip (winograd.Conv on a
//     winograd.PrepareNonFused filter).
func (w *Weights) Forward(in *tensor.Tensor, batchN int, ch tune.Choice) (*tensor.Tensor, error) {
	is := in.ImageShape()
	if is.N > batchN {
		return nil, fmt.Errorf("cudart: %d live images do not fit a batch of %d", is.N, batchN)
	}
	switch ch.Algo {
	case tune.AlgoFused:
		is.N = batchN
		if err := checkFusedShape(is, w.flt.FilterShapeOf()); err != nil {
			return nil, err
		}
		return winograd.Conv(in, &w.fused, 1)
	case tune.AlgoGEMM:
		out, err := conv.Im2col(in, w.flt, conv.Params{Pad: 1})
		if err != nil || in.Layout == tensor.NCHW {
			return out, err
		}
		return out.ToLayout(tensor.KHWN), nil
	case tune.AlgoNonfused:
		return winograd.Conv(in, &w.nonFused, 1)
	default:
		return nil, fmt.Errorf("cudart: unknown algorithm %q", ch.Algo)
	}
}

// checkFusedShape enforces the fused SASS kernel's shape contract, which
// the kernel generator imposes: whole 32-image and 64-filter blocks, and
// whole 8-channel steps.
func checkFusedShape(is tensor.Shape4, fs tensor.FilterShape) error {
	if is.N%32 != 0 || fs.K%64 != 0 || is.C%8 != 0 {
		return fmt.Errorf("cudart: needs N%%32==0, K%%64==0, C%%8==0 (got N=%d K=%d C=%d)", is.N, fs.K, is.C)
	}
	return nil
}
