// Package conv implements batched 2-D convolution baselines: a direct
// (reference) convolution and an im2col+GEMM convolution. These are the
// functional counterparts of the cuDNN algorithms the paper compares
// against (IMPLICIT_GEMM / GEMM), and the direct implementation is the
// ground-truth oracle for every Winograd correctness test in this
// repository.
//
// Following the convention of CNN frameworks (and the paper's Equation 4),
// "convolution" here means cross-correlation:
//
//	O[k,y,x,n] = sum_{c,r,s} I[c, y+r-pad, x+s-pad, n] * F[c,r,s,k]
package conv

import (
	"fmt"
	"runtime"

	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Params describes the convolution geometry. Every convolution here runs
// at stride 1.
type Params struct {
	Pad int // symmetric zero padding (both dimensions)
}

// OutputShape returns the logical (N, K, OH, OW) output shape for an input
// of shape in and filter of shape f under p.
func OutputShape(in tensor.Shape4, f tensor.FilterShape, p Params) (n, k, oh, ow int) {
	oh = in.H + 2*p.Pad - f.R + 1
	ow = in.W + 2*p.Pad - f.S + 1
	return in.N, f.K, oh, ow
}

func checkShapes(in tensor.Shape4, f tensor.FilterShape, p Params) error {
	if in.C != f.C {
		return fmt.Errorf("conv: channel mismatch: input C=%d filter C=%d", in.C, f.C)
	}
	_, _, oh, ow := OutputShape(in, f, p)
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("conv: empty output (%dx%d) for input %dx%d filter %dx%d pad %d",
			oh, ow, in.H, in.W, f.R, f.S, p.Pad)
	}
	return nil
}

// Direct computes the convolution with quadruple loops, layout-agnostic.
// Output layout is NCHW (with K in the channel slot). It is deliberately
// simple and serial: this function defines correct behaviour for the
// whole repo.
func Direct(in, flt *tensor.Tensor, p Params) (*tensor.Tensor, error) {
	return direct(in, flt, p, 1)
}

// DirectParallel computes the same result as Direct, parallelized over
// (n, k) output planes. Used when the reference is needed on larger
// problems; every plane keeps Direct's summation order, so the result is
// bitwise equal.
func DirectParallel(in, flt *tensor.Tensor, p Params) (*tensor.Tensor, error) {
	return direct(in, flt, p, 0)
}

// direct runs the reference loop nest, one (n, k) output plane per
// par.For index, on at most workers goroutines (GOMAXPROCS when <= 0).
func direct(in, flt *tensor.Tensor, p Params, workers int) (*tensor.Tensor, error) {
	is := in.ImageShape()
	fs := flt.FilterShapeOf()
	if err := checkShapes(is, fs, p); err != nil {
		return nil, err
	}
	_, _, oh, ow := OutputShape(is, fs, p)
	out := tensor.New(tensor.NCHW, is.N, fs.K, oh, ow)
	par.For(is.N*fs.K, workers, func(j int) {
		n, k := j/fs.K, j%fs.K
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var acc float32
				for c := 0; c < is.C; c++ {
					for r := 0; r < fs.R; r++ {
						iy := y + r - p.Pad
						if iy < 0 || iy >= is.H {
							continue
						}
						for s := 0; s < fs.S; s++ {
							ix := x + s - p.Pad
							if ix < 0 || ix >= is.W {
								continue
							}
							acc += in.ImageAt(n, c, iy, ix) * flt.FilterAt(k, c, r, s)
						}
					}
				}
				out.Set(n, k, y, x, acc)
			}
		}
	})
	return out, nil
}

// Im2col computes the convolution by lowering each image to a
// (C*R*S) x (OH*OW) matrix and multiplying by the (K) x (C*R*S) filter
// matrix — the GEMM algorithm in the paper's comparison. Output is NCHW,
// so each image's K x (OH*OW) product is written in place. Images are
// strided across par.For workers, each owning one lowering buffer.
func Im2col(in, flt *tensor.Tensor, p Params) (*tensor.Tensor, error) {
	is := in.ImageShape()
	fs := flt.FilterShapeOf()
	if err := checkShapes(is, fs, p); err != nil {
		return nil, err
	}
	_, _, oh, ow := OutputShape(is, fs, p)
	out := tensor.New(tensor.NCHW, is.N, fs.K, oh, ow)

	// Filter as K x (C*R*S), row-major.
	kdim := fs.C * fs.R * fs.S
	fm := make([]float32, fs.K*kdim)
	for k := 0; k < fs.K; k++ {
		idx := k * kdim
		for c := 0; c < fs.C; c++ {
			for r := 0; r < fs.R; r++ {
				for s := 0; s < fs.S; s++ {
					fm[idx] = flt.FilterAt(k, c, r, s)
					idx++
				}
			}
		}
	}

	plane := fs.K * oh * ow
	workers := min(runtime.GOMAXPROCS(0), is.N)
	par.For(workers, workers, func(w int) {
		cols := make([]float32, kdim*oh*ow)
		for n := w; n < is.N; n += workers {
			// Lower image n.
			row := 0
			for c := 0; c < fs.C; c++ {
				for r := 0; r < fs.R; r++ {
					for s := 0; s < fs.S; s++ {
						base := row * oh * ow
						for y := 0; y < oh; y++ {
							iy := y + r - p.Pad
							for x := 0; x < ow; x++ {
								ix := x + s - p.Pad
								var v float32
								if iy >= 0 && iy < is.H && ix >= 0 && ix < is.W {
									v = in.ImageAt(n, c, iy, ix)
								}
								cols[base+y*ow+x] = v
							}
						}
						row++
					}
				}
			}
			gemm.Blocked(fm, cols, out.Data[n*plane:(n+1)*plane], fs.K, kdim, oh*ow)
		}
	})
	return out, nil
}
