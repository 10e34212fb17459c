package winograd

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// specials are the values the kernels' differential test mixes into
// random data: signed zeros, infinities (so Inf*0 NaNs occur), the
// smallest subnormal (so denormal products and sums occur) and the
// largest finite values (so products and sums overflow).
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32,
}

// kernelData fills xs from r: one value in eight a special, the rest
// uniform in [-1, 1).
func kernelData(r *tensor.RNG, xs []float32) {
	for i := range xs {
		if u := r.Uint64(); u%8 == 0 {
			xs[i] = specials[(u>>3)%uint64(len(specials))]
		} else {
			xs[i] = r.Float32()
		}
	}
}

// requireSameFloats fails unless got and want hold the same float32
// bits, NaN excepted: any NaN matches any NaN, since x86 takes a NaN
// result's payload from the operand order, which the Go compiler picks.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d is %v (%#08x), the Go loop gives %v (%#08x)",
				what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// checkKernels runs the dispatched EWMM and output transform (the SSE
// kernels on amd64, with the Go loops for the remainder) and the Go
// loops alone on the same data, and requires the same bits everywhere
// in the buffers they write, the words they must leave alone included.
// nk filters, nn tiles and nc channels; the accumulator rows are nk+ldaPad
// apart, the filter rows nk+ldfPad. layout picks the output's strides:
// NCHW-like (sw = 1) or KHWN-like (sw = the batch).
func checkKernels(t *testing.T, seed uint64, nk, nn, nc, ldaPad, ldfPad int, khwn bool) {
	t.Helper()
	r := tensor.NewRNG(seed)
	lda, ldf := nk+ldaPad, nk+ldfPad
	x := make([]float32, nn*bc)
	f := make([]float32, nc*ldf)
	acc := make([]float32, nn*lda)
	kernelData(r, x)
	kernelData(r, f)
	kernelData(r, acc)
	want := append([]float32(nil), acc...)
	ewmm(acc, lda, f, ldf, x, nk, nn, nc)
	ewmmGo(want, lda, f, ldf, x, 0, nk, nn, nc)
	requireSameFloats(t, "ewmm", acc, want)

	// One whole tile's 16 elements, estride apart, into a 2x2 output
	// per filter.
	estride := nn * lda
	tile := make([]float32, 16*estride)
	kernelData(r, tile)
	sh, sw, sk := 3, 1, 7 // NCHW-like, with a gap after each row and plane
	if khwn {
		sw = 2 + nn%3
		sh, sk = 3*sw, 7*sw
	}
	out := make([]float32, nk*sk+sh+sw)
	kernelData(r, out)
	wantOut := append([]float32(nil), out...)
	transformOutputs(tile, estride, out, sh, sw, sk, nk)
	transformOutputsGo(tile, estride, wantOut, sh, sw, sk, 0, nk)
	requireSameFloats(t, "output transform", out, wantOut)
}

// TestSIMDKernelsMatchGo: the vector kernels give the Go loops' bits on
// shapes that reach every path: fewer than one vector group, whole
// 16-filter groups, Go remainder columns after them, one tile, an odd
// and an even tile count, partial and whole channel steps, and padded
// row strides.
func TestSIMDKernelsMatchGo(t *testing.T) {
	seed := uint64(1)
	for _, nk := range []int{1, 3, 4, 5, 15, 16, 17, 20, 31, 32, 48, 63, 64, 70, 80} {
		for _, nn := range []int{1, 2, 3, 9, 16, 31, 32} {
			for _, nc := range []int{1, 5, 8} {
				for _, pad := range []int{0, 3} {
					seed++
					checkKernels(t, seed, nk, nn, nc, pad, 2*pad, seed%2 == 0)
				}
			}
		}
	}
}

// FuzzSIMDKernels draws the shape, strides and data of
// TestSIMDKernelsMatchGo: nk in [1, 80], nn in [1, 32], nc in [1, 8].
func FuzzSIMDKernels(f *testing.F) {
	f.Add(uint64(1), uint8(63), uint8(8), uint8(7), uint8(0), uint8(0), false)
	f.Add(uint64(2), uint8(16), uint8(0), uint8(4), uint8(3), uint8(1), true)
	f.Add(uint64(3), uint8(69), uint8(31), uint8(0), uint8(0), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, nk, nn, nc, ldaPad, ldfPad uint8, khwn bool) {
		checkKernels(t, seed, int(nk)%80+1, int(nn)%32+1, int(nc)%8+1, int(ldaPad)%8, int(ldfPad)%8, khwn)
	})
}
