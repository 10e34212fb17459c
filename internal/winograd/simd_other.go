//go:build !amd64

package winograd

// ewmm runs one bc-channel step of one tile element's block GEMM on the
// portable Go loop, for the columns [0, nk).
func ewmm(acc []float32, lda int, f []float32, ldf int, x []float32, nk, nn, nc int) {
	ewmmGo(acc, lda, f, ldf, x, 0, nk, nn, nc)
}

// transformOutputs applies the output transform to one whole F(2x2,3x3)
// tile for the filters [0, nk) on the portable Go loop.
func transformOutputs(acc []float32, estride int, out []float32, sh, sw, sk, nk int) {
	transformOutputsGo(acc, estride, out, sh, sw, sk, 0, nk)
}
