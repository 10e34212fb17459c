// Package model provides the analytic performance models the evaluation
// needs alongside the simulator: the roofline analysis of Figure 2, time
// models for the cuDNN algorithms the paper compares against in Figures
// 12-13 (the paper itself models the non-fused algorithms analytically in
// Section 8.1), the workspace accounting of Figure 14, and the
// fused-versus-non-fused break-even analysis of Section 8.1.
package model

import (
	"fmt"
	"math/bits"

	"repro/internal/gpu"
)

// Algo names a cuDNN convolution algorithm from the paper's comparison.
type Algo string

const (
	AlgoFFT                 Algo = "FFT"
	AlgoFFTTiling           Algo = "FFT_TILING"
	AlgoGEMM                Algo = "GEMM"
	AlgoImplicitGEMM        Algo = "IMPLICIT_GEMM"
	AlgoImplicitPrecompGEMM Algo = "IMPLICIT_PRECOMP_GEMM"
	AlgoWinogradNonfused    Algo = "WINOGRAD_NONFUSED"
)

// Algos lists the comparison algorithms in the paper's column order.
func Algos() []Algo {
	return []Algo{AlgoFFT, AlgoFFTTiling, AlgoGEMM, AlgoImplicitGEMM,
		AlgoImplicitPrecompGEMM, AlgoWinogradNonfused}
}

// Shape is a 3x3 convolution layer shape (stride 1, pad 1, square
// output): C input channels, K filters, H x W output, N batch.
type Shape struct {
	C, K, H, W, N int
}

// FLOPs is the direct-convolution operation count 2*N*C*H*W*K*9.
func (s Shape) FLOPs() float64 {
	return 2 * float64(s.N) * float64(s.C) * float64(s.H) * float64(s.W) * float64(s.K) * 9
}

// ioBytes is the unavoidable input+output+filter traffic.
func (s Shape) ioBytes() float64 {
	return 4 * (float64(s.N)*float64(s.C)*float64(s.H)*float64(s.W) +
		float64(s.N)*float64(s.K)*float64(s.H)*float64(s.W) +
		float64(s.C)*float64(s.K)*9)
}

// Efficiency factors: the sustained fraction of peak each algorithm's
// compute phase reaches. GEMM-based algorithms run near library-SGEMM
// efficiency; FFT's pointwise stage and the transform passes run lower.
const (
	effGEMM     = 0.85
	effPrecomp  = 0.87
	effImplicit = 0.60 // no precomputed indices: address math shares the pipe
	effFFT      = 0.70
	effNonfused = 0.80
)

// Seconds estimates the runtime of algo on shape s for device dev.
func Seconds(algo Algo, s Shape, dev gpu.Device) float64 {
	peak := dev.PeakFP32TFLOPS() * 1e12
	bw := dev.DRAMBandwidthGBs * 1e9
	f := s.FLOPs()
	switch algo {
	case AlgoImplicitPrecompGEMM:
		return maxf(f/(peak*effPrecomp), s.ioBytes()*1.5/bw)
	case AlgoImplicitGEMM:
		return maxf(f/(peak*effImplicit), s.ioBytes()*1.5/bw)
	case AlgoGEMM:
		// Explicit im2col: the lowered matrix is written and read back.
		lower := 2 * float64(WorkspaceBytes(AlgoGEMM, s))
		return f/(peak*effGEMM) + (lower+s.ioBytes())/bw
	case AlgoFFT:
		return fftSeconds(s, dev, s.H, s.W)
	case AlgoFFTTiling:
		// Tiled FFT: fixed 32x32 tiles with 2-pixel halo overlap.
		return fftTiledSeconds(s, dev)
	case AlgoWinogradNonfused:
		// Paper Section 8.1: F(4x4,3x3) compute plus the transformed
		// data round-trip through global memory (the transformed input
		// is (6x6)/(4x4) = 2.25x the original; both input- and
		// output-side intermediates are written once and read once).
		nchw := 4 * float64(s.N) * float64(s.C) * float64(s.H) * float64(s.W)
		nkhw := 4 * float64(s.N) * float64(s.K) * float64(s.H) * float64(s.W)
		mem := (nchw*(1+2.25)*2 + nkhw*(1+2.25)) / bw
		return f/4/(peak*effNonfused) + mem
	default:
		panic(fmt.Sprintf("model: unknown algorithm %q", algo))
	}
}

// nextPow2 returns the smallest power of two >= n (and >= 1): the padded
// transform size of a radix-2 FFT.
func nextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

func fftSeconds(s Shape, dev gpu.Device, th, tw int) float64 {
	peak := dev.PeakFP32TFLOPS() * 1e12
	bw := dev.DRAMBandwidthGBs * 1e9
	ph := float64(nextPow2(th + 2))
	pw := float64(nextPow2(tw + 2))
	// Pointwise complex multiply-accumulate dominates: N*K*C spectra of
	// ph x pw/2+1 points, 8 real ops per point.
	points := ph * (pw/2 + 1)
	pointwise := float64(s.N) * float64(s.K) * float64(s.C) * points * 8
	// Transforms: (N*C + N*K) 2-D FFTs of 5*n*log2(n) flavour.
	logn := logf2(ph * pw)
	xform := (float64(s.N)*float64(s.C) + float64(s.N)*float64(s.K)) * 5 * ph * pw * logn
	mem := 3 * float64(WorkspaceBytes(AlgoFFT, s)) / bw
	return (pointwise+xform)/(peak*effFFT) + mem
}

// fftTiledSeconds models cuDNN's FFT_TILING: the image is cut into 32x32
// tiles with a 2-pixel halo, each tile transformed independently.
func fftTiledSeconds(s Shape, dev gpu.Device) float64 {
	peak := dev.PeakFP32TFLOPS() * 1e12
	bw := dev.DRAMBandwidthGBs * 1e9
	const tile = 32
	eff := tile - 2
	tiles := float64((s.H+eff-1)/eff) * float64((s.W+eff-1)/eff)
	points := float64(tile) * (tile/2 + 1)
	pointwise := float64(s.N) * float64(s.K) * float64(s.C) * tiles * points * 8
	logn := logf2(tile * tile)
	xform := (float64(s.N)*float64(s.C) + float64(s.N)*float64(s.K)) * tiles * 5 * tile * tile * logn
	mem := 3 * float64(WorkspaceBytes(AlgoFFTTiling, s)) / bw
	return (pointwise+xform)/(peak*effFFT) + mem
}

func logf2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// WorkspaceBytes returns the global-memory workspace each algorithm
// requires (Figure 14). GEMM and WINOGRAD_NONFUSED follow cuDNN's exact
// formulas (they match the paper's reported megabytes); the FFT variants
// use the spectra the algorithm must hold and land near the reported
// values; the implicit algorithms need none.
func WorkspaceBytes(algo Algo, s Shape) int64 {
	switch algo {
	case AlgoImplicitGEMM, AlgoImplicitPrecompGEMM:
		return 0
	case AlgoGEMM:
		// The lowered im2col matrix: N x (C*9) x (H*W) floats.
		return int64(s.N) * int64(s.C) * 9 * int64(s.H) * int64(s.W) * 4
	case AlgoWinogradNonfused:
		// F(4x4,3x3): 36-element transformed input and pre-output tiles.
		tiles := int64(s.N) * int64((s.H+3)/4) * int64((s.W+3)/4)
		return 36 * 4 * (int64(s.C)*tiles + int64(s.K)*tiles + int64(s.C)*int64(s.K))
	case AlgoFFT:
		ph := int64(nextPow2(s.H + 2))
		pw := int64(nextPow2(s.W + 2))
		full := ph * pw * 8
		half := ph * (pw/2 + 1) * 8
		return int64(s.N)*int64(s.C)*full + int64(s.N)*int64(s.K)*full +
			int64(s.C)*int64(s.K)*half
	case AlgoFFTTiling:
		const tile = 32
		eff := int64(tile - 2)
		tiles := int64(s.N) * ((int64(s.H) + eff - 1) / eff) * ((int64(s.W) + eff - 1) / eff)
		half := int64(tile) * (tile/2 + 1) * 8
		return tiles*int64(s.C)*half + tiles*int64(s.K)*half +
			int64(s.C)*int64(s.K)*half
	default:
		panic(fmt.Sprintf("model: unknown algorithm %q", algo))
	}
}

// OursWorkspaceBytes is the paper's fused kernel workspace: the 16*K*C
// transformed filter (Section 7.3: 0.25 MB for Conv2 ... 16 MB for Conv5).
func OursWorkspaceBytes(s Shape) int64 {
	return 16 * int64(s.K) * int64(s.C) * 4
}
