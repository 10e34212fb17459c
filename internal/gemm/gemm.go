// Package gemm implements single-precision general matrix multiplication:
// a cache-blocked serial kernel and a batched variant that fans the
// blocked kernel out over batch indices through par.For (its tests hold
// the straightforward reference kernel both are checked against). It is the substrate for im2col convolution and for the
// non-fused Winograd implementation, mirroring the role cuBLAS-style
// batched GEMM plays in the paper (Section 2.3: "batched GEMM is a
// subproblem of Winograd convolution").
package gemm

import (
	"fmt"

	"repro/internal/par"
)

// block sizes for the serial blocked kernel; chosen to keep an A panel and
// a B panel resident in L1/L2 for typical sizes.
const (
	blockM = 64
	blockN = 64
	blockK = 64
)

// Blocked computes C = A*B using cache blocking (the Lam/Rothberg/Wolf
// strategy the paper cites for its own two-level blocking).
func Blocked(a, b, c []float32, m, k, n int) {
	checkDims(a, b, c, m, k, n)
	for i := range c[:m*n] {
		c[i] = 0
	}
	for ii := 0; ii < m; ii += blockM {
		iMax := min(ii+blockM, m)
		for pp := 0; pp < k; pp += blockK {
			pMax := min(pp+blockK, k)
			for jj := 0; jj < n; jj += blockN {
				jMax := min(jj+blockN, n)
				for i := ii; i < iMax; i++ {
					arow := a[i*k : i*k+k]
					crow := c[i*n : i*n+n]
					for p := pp; p < pMax; p++ {
						av := arow[p]
						if av == 0 {
							continue
						}
						brow := b[p*n : p*n+n]
						for j := jj; j < jMax; j++ {
							crow[j] += av * brow[j]
						}
					}
				}
			}
		}
	}
}

// Batched computes batch independent products C[i] = A[i]*B[i], where the
// slices hold the matrices contiguously (stride m*k, k*n, m*n). Batches
// run through par.For on GOMAXPROCS goroutines; each is a serial
// Blocked product, so the worker count cannot change the bits. This is
// the EWMM step of non-fused Winograd: 16 batched GEMMs, one per tile
// element.
func Batched(a, b, c []float32, batch, m, k, n int) {
	if len(a) < batch*m*k || len(b) < batch*k*n || len(c) < batch*m*n {
		panic(fmt.Sprintf("gemm: batched buffers too small for batch=%d m=%d k=%d n=%d", batch, m, k, n))
	}
	par.For(batch, 0, func(i int) {
		Blocked(a[i*m*k:(i+1)*m*k], b[i*k*n:(i+1)*k*n], c[i*m*n:(i+1)*m*n], m, k, n)
	})
}

func checkDims(a, b, c []float32, m, k, n int) {
	if len(a) < m*k || len(b) < k*n || len(c) < m*n {
		panic(fmt.Sprintf("gemm: buffers too small for m=%d k=%d n=%d (a=%d b=%d c=%d)",
			m, k, n, len(a), len(b), len(c)))
	}
}
