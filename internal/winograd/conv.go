package winograd

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/gemm"
	"repro/internal/par"
	"repro/internal/tensor"
)

// Conv2D computes a batched stride-1 3x3 convolution with the fused
// F(2x2,3x3) algorithm: PrepareFused, then Conv. The input may be in
// NCHW or CHWN layout; the filter in KCRS or CRSK. The output layout
// follows the input's: NCHW for NCHW, the paper's KHWN for CHWN. pad
// is the symmetric zero padding (ResNet 3x3 layers use pad=1).
func Conv2D(in, flt *tensor.Tensor, pad int) (*tensor.Tensor, error) {
	f, err := PrepareFused(flt)
	if err != nil {
		return nil, err
	}
	return Conv(in, &f, pad)
}

// Filter is a filter bank after the Winograd filter transform, the
// output of the paper's separate FX kernel, prepared for one of the two
// algorithms. It depends only on the weights, so a caller whose weights
// do not change can transform once and convolve many times. A Filter is
// immutable and safe for concurrent use.
type Filter struct {
	nonFused bool
	c, k     int
	// hat is element-major. The fused path reads it as 16 (C x K)
	// matrices, index e*(C*K) + c*K + k (FilterTransformAll); the
	// non-fused path as the 36 (K x C) transposes its GEMM consumes,
	// index e*(K*C) + k*C + c.
	hat []float32
	// finite records that no hat value is ±Inf or NaN, the condition
	// under which the fused path may skip all-zero images (liveImages).
	finite bool
}

// PrepareFused transforms flt (KCRS or CRSK, 3x3) for the fused
// F(2x2,3x3) algorithm, the paper's kernel at its fixed blocking.
func PrepareFused(flt *tensor.Tensor) (Filter, error) { return prepare(flt, F2x2) }

// PrepareNonFused transforms flt (KCRS or CRSK, 3x3) for the non-fused
// F(4x4,3x3) algorithm, laid out for its batched GEMM.
func PrepareNonFused(flt *tensor.Tensor) (Filter, error) { return prepare(flt, F4x4) }

// prepare transforms flt for v's one algorithm: fused for F(2x2,3x3),
// non-fused for F(4x4,3x3).
func prepare(flt *tensor.Tensor, v Variant) (Filter, error) {
	fs := flt.FilterShapeOf()
	if fs.R != 3 || fs.S != 3 {
		return Filter{}, fmt.Errorf("winograd: needs a 3x3 filter, got %dx%d", fs.R, fs.S)
	}
	hat := FilterTransformAll(flt, v)
	nonFused := v == F4x4
	if nonFused {
		hat = transposeElements(hat, v.TileArea(), fs.C, fs.K)
	}
	return Filter{nonFused: nonFused, c: fs.C, k: fs.K, hat: hat, finite: allFinite(hat)}, nil
}

// transposeElements turns area element-major (rows x cols) matrices into
// their (cols x rows) transposes.
func transposeElements(m []float32, area, rows, cols int) []float32 {
	t := make([]float32, len(m))
	par.For(area, 0, func(e int) {
		src := m[e*rows*cols : (e+1)*rows*cols]
		dst := t[e*rows*cols : (e+1)*rows*cols]
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				dst[c*rows+r] = src[r*cols+c]
			}
		}
	})
	return t
}

// Conv convolves in with f by the algorithm f was prepared for.
func Conv(in *tensor.Tensor, f *Filter, pad int) (*tensor.Tensor, error) {
	is := in.ImageShape()
	if is.C != f.c {
		return nil, fmt.Errorf("winograd: channel mismatch: input C=%d filter C=%d", is.C, f.c)
	}
	oh := is.H + 2*pad - 2
	ow := is.W + 2*pad - 2
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("winograd: empty output for input %dx%d pad %d", is.H, is.W, pad)
	}
	if f.nonFused {
		return convNonFused(in, f, pad, oh, ow), nil
	}
	return convFused(in, f, pad, oh, ow), nil
}

// FilterTransformAll applies the filter transform to every (c, k) 3x3
// filter tile. The result is stored element-major: index
// e*(C*K) + c*K + k, matching the per-element (C x K) matrices the EWMM
// step consumes; along k the data is contiguous, the property the paper's
// CR'S'K layout provides for coalescing. The work fans out over input
// channels: one channel's K tiles are one loop index, so each worker
// writes whole contiguous k runs.
func FilterTransformAll(flt *tensor.Tensor, v Variant) []float32 {
	fs := flt.FilterShapeOf()
	area := v.TileArea()
	out := make([]float32, area*fs.C*fs.K)
	par.For(fs.C, 0, func(c int) {
		var f FilterTile3
		var hat [maxArea]float32
		for k := 0; k < fs.K; k++ {
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					f[r*3+s] = flt.FilterAt(k, c, r, s)
				}
			}
			TransformFilterTile(v, &f, hat[:area])
			for e := 0; e < area; e++ {
				out[e*fs.C*fs.K+c*fs.K+k] = hat[e]
			}
		}
	})
	return out
}

// tileGrid describes the decomposition of the output plane into m x m tiles.
type tileGrid struct {
	m, t           int // output tile size, input tile size
	tilesH, tilesW int
	oh, ow         int
	pad            int
}

func newTileGrid(v Variant, oh, ow, pad int) tileGrid {
	m := v.M()
	return tileGrid{
		m: m, t: v.T(),
		tilesH: (oh + m - 1) / m,
		tilesW: (ow + m - 1) / m,
		oh:     oh, ow: ow,
		pad: pad,
	}
}

// tiles returns the total tile count for batch size n.
func (g tileGrid) tiles(n int) int { return n * g.tilesH * g.tilesW }

// split maps a global tile index to (n, th, tw); n varies fastest, which is
// what makes warp-wide loads of consecutive tiles coalesced in CHWN. The
// fused path passes its live-image count, so batch indexes that list.
func (g tileGrid) split(j, n int) (batch, th, tw int) {
	batch = j % n
	rest := j / n
	tw = rest % g.tilesW
	th = rest / g.tilesW
	return
}

// image is a flat NCHW, CHWN or KHWN buffer with its logical shape and
// strides, so tile gathers and scatters index Data directly.
type image struct {
	data           []float32
	s              tensor.Shape4
	sn, sc, sh, sw int
}

func imageOf(t *tensor.Tensor) image {
	im := image{data: t.Data, s: t.ImageShape()}
	im.sn, im.sc, im.sh, im.sw = t.ImageStrides()
	return im
}

// newOutput allocates the output of in's n images, k channels of oh x
// ow, in the layout that follows in's: NCHW for NCHW, KHWN for CHWN.
func newOutput(in *tensor.Tensor, k, oh, ow, n int) *tensor.Tensor {
	if in.Layout == tensor.NCHW {
		return tensor.New(tensor.NCHW, n, k, oh, ow)
	}
	return tensor.New(tensor.KHWN, k, oh, ow, n)
}

// zero reports whether every input of image n is ±0, reading up to its
// first non-zero value.
func (im image) zero(n int) bool {
	for c := 0; c < im.s.C; c++ {
		for h := 0; h < im.s.H; h++ {
			row := n*im.sn + c*im.sc + h*im.sh
			for w := 0; w < im.s.W; w++ {
				if im.data[row+w*im.sw] != 0 {
					return false
				}
			}
		}
	}
	return true
}

// liveImages lists the images whose output the fused path computes. An
// all-±0 image is skipped when every transformed filter value is finite:
// each of its products is then ±0, so every accumulator stays at its +0
// start, and the output transform maps all +0 to +0, the value
// tensor.New already holds. A non-finite filter keeps every image, so
// Inf*0 = NaN propagates exactly as in cudart's test oracle, WinogradConv.
func liveImages(in image, finite bool) []int {
	live := make([]int, 0, in.s.N)
	for n := 0; n < in.s.N; n++ {
		if !finite || !in.zero(n) {
			live = append(live, n)
		}
	}
	return live
}

// allFinite reports whether no value is ±Inf or NaN, the float32s whose
// exponent bits are all ones.
func allFinite(xs []float32) bool {
	for _, x := range xs {
		if math.Float32bits(x)&0x7f800000 == 0x7f800000 {
			return false
		}
	}
	return true
}

// gatherInputTile copies the t x t input patch for tile (batch, th, tw)
// into dst, applying implicit zero padding — the CPU analogue of the
// kernel's predicated LDGs.
func gatherInputTile(in image, g tileGrid, batch, c, th, tw int, dst []float32) {
	base := batch*in.sn + c*in.sc
	y0 := th*g.m - g.pad
	x0 := tw*g.m - g.pad
	for r := 0; r < g.t; r++ {
		row := dst[r*g.t : r*g.t+g.t]
		iy := y0 + r
		if iy < 0 || iy >= in.s.H {
			clear(row)
			continue
		}
		rowBase := base + iy*in.sh
		for s := range row {
			var v float32
			if ix := x0 + s; ix >= 0 && ix < in.s.W {
				v = in.data[rowBase+ix*in.sw]
			}
			row[s] = v
		}
	}
}

// scatterOutputTile writes an m x m output tile to output channel k of
// image batch, with bounds checks for the partial tiles at the right and
// bottom edges.
func scatterOutputTile(out image, g tileGrid, k, batch, th, tw int, tile []float32) {
	base := k*out.sc + batch*out.sn
	y0 := th * g.m
	x0 := tw * g.m
	for r := 0; r < g.m && y0+r < g.oh; r++ {
		rowBase := base + (y0+r)*out.sh
		for s := 0; s < g.m && x0+s < g.ow; s++ {
			out.data[rowBase+(x0+s)*out.sw] = tile[r*g.m+s]
		}
	}
}

// The fused path's blocking is the paper's: a thread block owns bk
// filters x bn input tiles and loops over channels in steps of bc.
// area2 and maxArea are the element counts of an F(2x2,3x3) and an
// F(4x4,3x3) tile.
const (
	bk, bn, bc = 64, 32, 8
	area2      = 16
	maxArea    = 36
)

// fusedBlock holds one thread block's working set: the analogue of the
// kernel's shared input buffer and its register accumulators. Blocks are
// recycled through fusedBlocks, so a warm forward pass allocates none.
type fusedBlock struct {
	acc   [bk * area2 * bn]float32 // (k, e, n): one filter's tiles are contiguous for the output transform
	inHat [area2 * bn * bc]float32 // (e, n, c): c fastest, the EWMM reduction
}

var fusedBlocks = sync.Pool{New: func() any { return new(fusedBlock) }}

// convFused is the CPU mirror of the paper's Algorithm 1 for
// F(2x2,3x3): a grid of "thread blocks", each owning bk filters x bn
// input tiles, looping over channels in steps of bc with block-local
// transformed-tile buffers.
//
// Every output element sums its products over c in ascending order,
// starting from +0, exactly as the threads of cudart's test oracle
// (WinogradConv) do, so the two agree bit for bit whatever the worker
// count. The tile grid covers only the live images (liveImages); a
// skipped all-zero image's output is the +0 the oracle computes for it.
func convFused(in *tensor.Tensor, f *Filter, pad, oh, ow int) *tensor.Tensor {
	src := imageOf(in)
	is := src.s
	g := newTileGrid(F2x2, oh, ow, pad)
	fltHat, filters := f.hat, f.k
	live := liveImages(src, f.finite)
	totalTiles := g.tiles(len(live))
	blocksN := (totalTiles + bn - 1) / bn
	blocksK := (filters + bk - 1) / bk
	out := newOutput(in, filters, oh, ow, is.N)
	dst := imageOf(out)

	par.For(blocksN*blocksK, 0, func(blk int) {
		bkIdx, bnIdx := blk/blocksN, blk%blocksN
		k0 := bkIdx * bk
		k1 := min(k0+bk, filters)
		j0 := bnIdx * bn
		j1 := min(j0+bn, totalTiles)
		nk, nn := k1-k0, j1-j0

		b := fusedBlocks.Get().(*fusedBlock)
		defer fusedBlocks.Put(b)
		acc := b.acc[:nk*area2*nn]
		clear(acc)
		var tiles [bn][3]int // (batch, th, tw) of each of the block's tiles
		for ni := range tiles[:nn] {
			t := &tiles[ni]
			t[0], t[1], t[2] = g.split(j0+ni, len(live))
			t[0] = live[t[0]]
		}
		var raw, hat [area2]float32

		for c0 := 0; c0 < is.C; c0 += bc {
			nc := min(bc, is.C-c0)
			// Load + transform bn input tiles for bc channels
			// (Algorithm 1 line 8).
			for ni, t := range tiles[:nn] {
				for ci := 0; ci < nc; ci++ {
					gatherInputTile(src, g, t[0], c0+ci, t[1], t[2], raw[:])
					TransformInputTile(F2x2, raw[:], hat[:])
					for e, v := range hat {
						b.inHat[(e*nn+ni)*bc+ci] = v
					}
				}
			}
			// EWMM as batched matrix multiply (Algorithm 1 lines 9-15):
			// per tile element e, acc[e] += F_hat[e][c0:c0+nc][k0:k1]^T x inHat[e].
			for e := 0; e < area2; e++ {
				fE := fltHat[(e*is.C+c0)*filters+k0:]
				ewmm(acc[e*nn:], area2*nn, fE, filters, b.inHat[e*nn*bc:(e+1)*nn*bc], nk, nn, nc)
			}
		}
		// Output transform (Algorithm 1 lines 17-18). A whole tile is
		// transformed and stored in one step; a partial edge tile goes
		// through a staging tile and the bounds-checked scatter.
		var whole [bn]int // output offset of each whole tile, else -1
		for ni, t := range tiles[:nn] {
			whole[ni] = -1
			if y0, x0 := t[1]*g.m, t[2]*g.m; y0+2 <= g.oh && x0+2 <= g.ow {
				whole[ni] = t[0]*dst.sn + y0*dst.sh + x0*dst.sw
			}
		}
		var post [4]float32
		for ki := 0; ki < nk; ki++ {
			accK := acc[ki*area2*nn : (ki+1)*area2*nn]
			kBase := (k0 + ki) * dst.sc
			for ni, t := range tiles[:nn] {
				if whole[ni] >= 0 {
					transformOutput2(accK[ni:], nn, dst.data[kBase+whole[ni]:], dst.sh, dst.sw)
					continue
				}
				for e := range hat {
					hat[e] = accK[e*nn+ni]
				}
				TransformOutputTile(F2x2, hat[:], post[:])
				scatterOutputTile(dst, g, k0+ki, t[0], t[1], t[2], post[:])
			}
		}
	})
	return out
}

// ewmm runs one bc-channel step of one tile element's block GEMM:
// acc[k][n] += sum over c of f[c][k] * x[n][c], for nk filters (acc rows
// of stride lda, f rows of stride ldf) and nn tiles (x rows of stride
// bc, nc <= bc channels used). The register tile is four filters by two
// tiles, the CPU analogue of the paper's register-tiled outer product:
// each loaded input value feeds four accumulators and each loaded
// filter value two. c stays the innermost, ascending reduction loop,
// which fixes every element's summation order. The product is rounded
// before the add (the explicit conversion forbids a fused multiply-add),
// as the thread-for-thread kernel does.
func ewmm(acc []float32, lda int, f []float32, ldf int, x []float32, nk, nn, nc int) {
	ki := 0
	for ; ki+4 <= nk; ki += 4 {
		var fq [bc][4]float32
		for ci := 0; ci < nc; ci++ {
			copy(fq[ci][:], f[ci*ldf+ki:ci*ldf+ki+4])
		}
		fs := fq[:nc]
		r0 := acc[ki*lda : ki*lda+nn]
		r1 := acc[(ki+1)*lda : (ki+1)*lda+nn]
		r2 := acc[(ki+2)*lda : (ki+2)*lda+nn]
		r3 := acc[(ki+3)*lda : (ki+3)*lda+nn]
		ni := 0
		for ; ni+2 <= nn; ni += 2 {
			xs := x[ni*bc : ni*bc+len(fs)]
			ys := x[(ni+1)*bc : (ni+1)*bc+len(fs)]
			a0, a1, a2, a3 := r0[ni], r1[ni], r2[ni], r3[ni]
			b0, b1, b2, b3 := r0[ni+1], r1[ni+1], r2[ni+1], r3[ni+1]
			if len(fs) == bc {
				// A whole bc step, unrolled: Go does not unroll loops,
				// and the loop below keeps its counter and an
				// accumulator on the stack.
				xs, ys := (*[bc]float32)(xs), (*[bc]float32)(ys)
				xv, yv, fc := xs[0], ys[0], &fq[0]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[1], ys[1], &fq[1]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[2], ys[2], &fq[2]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[3], ys[3], &fq[3]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[4], ys[4], &fq[4]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[5], ys[5], &fq[5]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[6], ys[6], &fq[6]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
				xv, yv, fc = xs[7], ys[7], &fq[7]
				a0, a1, a2, a3 = a0+float32(fc[0]*xv), a1+float32(fc[1]*xv), a2+float32(fc[2]*xv), a3+float32(fc[3]*xv)
				b0, b1, b2, b3 = b0+float32(fc[0]*yv), b1+float32(fc[1]*yv), b2+float32(fc[2]*yv), b3+float32(fc[3]*yv)
			} else {
				for ci := range fs {
					xv, yv, fc := xs[ci], ys[ci], &fs[ci]
					a0 += float32(fc[0] * xv)
					a1 += float32(fc[1] * xv)
					a2 += float32(fc[2] * xv)
					a3 += float32(fc[3] * xv)
					b0 += float32(fc[0] * yv)
					b1 += float32(fc[1] * yv)
					b2 += float32(fc[2] * yv)
					b3 += float32(fc[3] * yv)
				}
			}
			r0[ni], r1[ni], r2[ni], r3[ni] = a0, a1, a2, a3
			r0[ni+1], r1[ni+1], r2[ni+1], r3[ni+1] = b0, b1, b2, b3
		}
		if ni < nn {
			xs := x[ni*bc : ni*bc+len(fs)]
			a0, a1, a2, a3 := r0[ni], r1[ni], r2[ni], r3[ni]
			for ci := range fs {
				xv, fc := xs[ci], &fs[ci]
				a0 += float32(fc[0] * xv)
				a1 += float32(fc[1] * xv)
				a2 += float32(fc[2] * xv)
				a3 += float32(fc[3] * xv)
			}
			r0[ni], r1[ni], r2[ni], r3[ni] = a0, a1, a2, a3
		}
	}
	for ; ki < nk; ki++ {
		row := acc[ki*lda : ki*lda+nn]
		for ni := range row {
			xs := x[ni*bc : ni*bc+nc]
			a := row[ni]
			for ci, xv := range xs {
				a += float32(f[ci*ldf+ki] * xv)
			}
			row[ni] = a
		}
	}
}

// convNonFused implements the non-fused F(4x4,3x3) strategy: transformed
// input and output round-trip through global workspaces, with the EWMM
// step done as 36 batched GEMMs — the structure of cuDNN's
// WINOGRAD_NONFUSED.
func convNonFused(in *tensor.Tensor, f *Filter, pad, oh, ow int) *tensor.Tensor {
	src := imageOf(in)
	filters := f.k
	is := src.s
	g := newTileGrid(F4x4, oh, ow, pad)
	totalTiles := g.tiles(is.N)

	// Scatter: transformed input workspace, element-major (e, c, tile).
	inHat := make([]float32, maxArea*is.C*totalTiles)
	par.For(is.C, 0, func(c int) {
		var raw, hat [maxArea]float32
		for j := 0; j < totalTiles; j++ {
			batch, th, tw := g.split(j, is.N)
			gatherInputTile(src, g, batch, c, th, tw, raw[:])
			TransformInputTile(F4x4, raw[:], hat[:])
			for e, v := range hat {
				inHat[(e*is.C+c)*totalTiles+j] = v
			}
		}
	})

	// Batched GEMM: O_hat[e] (K x T) = F_hat[e]^T (K x C) * I_hat[e] (C x T).
	outHat := make([]float32, maxArea*filters*totalTiles)
	gemm.Batched(f.hat, inHat, outHat, maxArea, filters, is.C, totalTiles)

	// Gather: output transform.
	out := newOutput(in, filters, oh, ow, is.N)
	dst := imageOf(out)
	par.For(filters, 0, func(k int) {
		var pre [maxArea]float32
		var post [16]float32
		for j := 0; j < totalTiles; j++ {
			for e := range pre {
				pre[e] = outHat[(e*filters+k)*totalTiles+j]
			}
			TransformOutputTile(F4x4, pre[:], post[:])
			batch, th, tw := g.split(j, is.N)
			scatterOutputTile(dst, g, k, batch, th, tw, post[:])
		}
	})
	return out
}
