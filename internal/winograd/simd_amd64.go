package winograd

// On amd64 the fused forward's two hot loops run as SSE kernels
// (simd_amd64.s). SSE and SSE2 are part of the amd64 baseline, so every
// amd64 CPU runs them and nothing needs to be detected. Each lane
// multiplies, rounds, then adds (MULPS, then ADDPS), the two roundings
// of the Go loops' explicit float32(f*x), and the channel order is the
// Go loops' too, so both paths give the same bits. The assembly checks
// no bounds, so each wrapper indexes the last element the kernel reaches
// before calling it.

// ewmm runs one bc-channel step of one tile element's block GEMM,
// acc[n][k] += sum over c of f[c][k] * x[n][c], as ewmmGo defines it for
// the columns [0, nk). The SSE kernel takes the whole groups of 16
// filters and ewmmGo the rest.
func ewmm(acc []float32, lda int, f []float32, ldf int, x []float32, nk, nn, nc int) {
	k16 := nk &^ 15
	if k16 > 0 && nn > 0 && nc > 0 {
		_ = acc[(nn-1)*lda+k16-1]
		_ = f[(nc-1)*ldf+k16-1]
		_ = x[(nn-1)*bc+nc-1]
		ewmmSSE(&acc[0], lda, &f[0], ldf, &x[0], k16/16, nn, nc)
	}
	if k16 < nk {
		ewmmGo(acc, lda, f, ldf, x, k16, nk, nn, nc)
	}
}

// transformOutputs applies the output transform to one whole F(2x2,3x3)
// tile for the filters [0, nk), as transformOutputsGo defines it. The
// SSE kernel takes the whole groups of four filters and
// transformOutputsGo the rest.
func transformOutputs(acc []float32, estride int, out []float32, sh, sw, sk, nk int) {
	k4 := nk &^ 3
	if k4 > 0 {
		_ = acc[15*estride+k4-1]
		_ = out[(k4-1)*sk+sh+sw]
		outputSSE(&acc[0], estride, &out[0], sh, sw, sk, k4/4)
	}
	if k4 < nk {
		transformOutputsGo(acc, estride, out, sh, sw, sk, k4, nk)
	}
}

// ewmmSSE is ewmmGo for the columns [0, 16*groups), on a register tile
// of two tiles by 16 filters: eight accumulator vectors, four filter
// vectors and two broadcast inputs, with a one-tile variant for an odd
// tile count. x rows are bc floats apart.
//
//go:noescape
func ewmmSSE(acc *float32, lda int, f *float32, ldf int, x *float32, groups, nn, nc int)

// outputSSE is transformOutputsGo for the filters [0, 4*groups), four
// filters a vector; each result lane is stored through the strides.
//
//go:noescape
func outputSSE(acc *float32, estride int, out *float32, sh, sw, sk, groups int)
