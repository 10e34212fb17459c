// Package winograd implements the paper's primary contribution at the
// algorithm level: Winograd minimal-filtering convolution for 3x3 filters,
// in the F(2x2,3x3) variant the paper's fused kernel uses and the
// F(4x4,3x3) variant used by non-fused implementations (cuDNN's
// WINOGRAD_NONFUSED). It provides the tile transforms (filter, input,
// output), a fused blocked CPU implementation of F(2x2,3x3) that mirrors
// the paper's Algorithm 1 (bk=64/bn=32/bc=8 cache blocking over NCHW or
// CHWN data), and a non-fused F(4x4,3x3) implementation built on batched
// GEMM.
package winograd

import "fmt"

// Variant selects the Winograd output-tile size for 3x3 filters.
type Variant int

const (
	// F2x2 is F(2x2, 3x3): 4x4 input tiles, 2x2 output tiles, 2.25x
	// multiplication reduction. The paper's fused kernel uses this.
	F2x2 Variant = iota
	// F4x4 is F(4x4, 3x3): 6x6 input tiles, 4x4 output tiles, 4x
	// multiplication reduction, used by non-fused implementations.
	F4x4
)

// String names the variant in the paper's F(m x m, r x r) notation.
func (v Variant) String() string {
	switch v {
	case F2x2:
		return "F(2x2,3x3)"
	case F4x4:
		return "F(4x4,3x3)"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// M returns the output tile size m (output tiles are m x m).
func (v Variant) M() int {
	if v == F4x4 {
		return 4
	}
	return 2
}

// T returns the input tile size t = m + 3 - 1 (input tiles are t x t).
func (v Variant) T() int { return v.M() + 2 }

// TileArea returns t*t, the number of elements per transformed tile.
func (v Variant) TileArea() int { t := v.T(); return t * t }

// MulReduction returns the theoretical multiplication-reduction factor,
// (m*r)^2 / (m+r-1)^2: 2.25 for F(2x2,3x3) and 4 for F(4x4,3x3).
func (v Variant) MulReduction() float64 {
	m, t := float64(v.M()), float64(v.T())
	return (m * m * 9) / (t * t)
}

// Transform matrices from Lavin & Gray, "Fast Algorithms for Convolutional
// Neural Networks" (the paper's reference [11]). The F(2x2,3x3) set, which
// the paper reproduces in its Equations 2-3, is hand-scheduled below
// (transformFilter2, transformInput2, transformOutput2); the tests hold
// its B^T and A^T and check the input and output schedules against them.

// BT4 is the 6x6 input-transform matrix B^T for F(4x4,3x3).
var BT4 = [6][6]float32{
	{4, 0, -5, 0, 1, 0},
	{0, -4, -4, 1, 1, 0},
	{0, 4, -4, -1, 1, 0},
	{0, -2, -1, 2, 1, 0},
	{0, 2, -1, -2, 1, 0},
	{0, 4, 0, -5, 0, 1},
}

// G4 is the 6x3 filter-transform matrix G for F(4x4,3x3).
var G4 = [6][3]float32{
	{1.0 / 4, 0, 0},
	{-1.0 / 6, -1.0 / 6, -1.0 / 6},
	{-1.0 / 6, 1.0 / 6, -1.0 / 6},
	{1.0 / 24, 1.0 / 12, 1.0 / 6},
	{1.0 / 24, -1.0 / 12, 1.0 / 6},
	{0, 0, 1},
}

// AT4 is the 4x6 output-transform matrix A^T for F(4x4,3x3).
var AT4 = [4][6]float32{
	{1, 1, 1, 1, 1, 0},
	{0, 1, -1, 2, -2, 0},
	{0, 1, 1, 4, 4, 0},
	{0, 1, -1, 8, -8, 1},
}

// FilterTile3 is a 3x3 filter tile in row-major order.
type FilterTile3 = [9]float32

// TransformFilterTile computes G * f * G^T for a 3x3 filter tile, writing
// the t*t result row-major into dst (len >= TileArea).
func TransformFilterTile(v Variant, f *FilterTile3, dst []float32) {
	switch v {
	case F2x2:
		transformFilter2(f, dst)
	case F4x4:
		transformFilterGeneric(6, g4Rows, f, dst)
	default:
		panic("winograd: unknown variant")
	}
}

// transformFilter2 is the hand-scheduled F(2x2,3x3) filter transform; the
// paper counts 28 float instructions for it.
func transformFilter2(f *FilterTile3, dst []float32) {
	// Rows of G*f (4x3): r0 = f0, r3 = f2, r1 = (f0+f1+f2)/2, r2 = (f0-f1+f2)/2.
	var gf [4][3]float32
	for c := 0; c < 3; c++ {
		a, b, d := f[0*3+c], f[1*3+c], f[2*3+c]
		gf[0][c] = a
		gf[1][c] = 0.5 * (a + b + d)
		gf[2][c] = 0.5 * (a - b + d)
		gf[3][c] = d
	}
	// (G*f)*G^T: same combination along columns.
	for r := 0; r < 4; r++ {
		a, b, d := gf[r][0], gf[r][1], gf[r][2]
		dst[r*4+0] = a
		dst[r*4+1] = 0.5 * (a + b + d)
		dst[r*4+2] = 0.5 * (a - b + d)
		dst[r*4+3] = d
	}
}

// The F(4x4,3x3) matrices as row slices for the generic transforms,
// built once so a tile transform allocates nothing. The transforms
// round each product before its add (float32(a*b)), so no platform
// fuses them into a multiply-add and every GOARCH gives the same bits.
var (
	g4Rows  = [][]float32{G4[0][:], G4[1][:], G4[2][:], G4[3][:], G4[4][:], G4[5][:]}
	bt4Rows = [][]float32{BT4[0][:], BT4[1][:], BT4[2][:], BT4[3][:], BT4[4][:], BT4[5][:]}
	at4Rows = [][]float32{AT4[0][:], AT4[1][:], AT4[2][:], AT4[3][:]}
)

// transformFilterGeneric computes G f G^T for a t x 3 matrix G given as
// rows, t <= 6.
func transformFilterGeneric(t int, g [][]float32, f *FilterTile3, dst []float32) {
	// gf = G (t x 3) * f (3 x 3) -> t x 3.
	var gf [6 * 3]float32
	for i := 0; i < t; i++ {
		for j := 0; j < 3; j++ {
			var acc float32
			for p := 0; p < 3; p++ {
				acc += float32(g[i][p] * f[p*3+j])
			}
			gf[i*3+j] = acc
		}
	}
	// dst = gf (t x 3) * G^T (3 x t) -> t x t.
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			var acc float32
			for p := 0; p < 3; p++ {
				acc += float32(gf[i*3+p] * g[j][p])
			}
			dst[i*t+j] = acc
		}
	}
}

// TransformInputTile computes B^T * d * B for a t x t input tile d
// (row-major in src), writing the t x t result into dst. src and dst may
// not alias.
func TransformInputTile(v Variant, src, dst []float32) {
	switch v {
	case F2x2:
		transformInput2(src, dst)
	case F4x4:
		transformInputGeneric(6, bt4Rows, src, dst)
	default:
		panic("winograd: unknown variant")
	}
}

// transformInput2 is the hand-scheduled F(2x2,3x3) input transform; the
// paper counts 32 float additions for it.
func transformInput2(d, dst []float32) {
	// tmp = B^T * d: row combinations
	//   r0 = d0 - d2, r1 = d1 + d2, r2 = d2 - d1, r3 = d1 - d3.
	var tmp [16]float32
	for c := 0; c < 4; c++ {
		d0, d1, d2, d3 := d[0*4+c], d[1*4+c], d[2*4+c], d[3*4+c]
		tmp[0*4+c] = d0 - d2
		tmp[1*4+c] = d1 + d2
		tmp[2*4+c] = d2 - d1
		tmp[3*4+c] = d1 - d3
	}
	// dst = tmp * B: same combinations along columns.
	for r := 0; r < 4; r++ {
		t0, t1, t2, t3 := tmp[r*4+0], tmp[r*4+1], tmp[r*4+2], tmp[r*4+3]
		dst[r*4+0] = t0 - t2
		dst[r*4+1] = t1 + t2
		dst[r*4+2] = t2 - t1
		dst[r*4+3] = t1 - t3
	}
}

// transformInputGeneric computes Bt d Bt^T-style product for a t x t tile,
// t <= 6: dst = Bt * d * Bt^T where bt holds the rows of B^T.
func transformInputGeneric(t int, bt [][]float32, d, dst []float32) {
	var tmp [maxArea]float32
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			var acc float32
			for p := 0; p < t; p++ {
				acc += float32(bt[i][p] * d[p*t+j])
			}
			tmp[i*t+j] = acc
		}
	}
	for i := 0; i < t; i++ {
		for j := 0; j < t; j++ {
			var acc float32
			for p := 0; p < t; p++ {
				acc += float32(tmp[i*t+p] * bt[j][p])
			}
			dst[i*t+j] = acc
		}
	}
}

// TransformOutputTile computes A^T * m * A for a t x t accumulated tile m,
// writing the m x m output tile into dst (len >= M()*M()).
func TransformOutputTile(v Variant, src, dst []float32) {
	switch v {
	case F2x2:
		transformOutput2(src, 1, dst, 2, 1)
	case F4x4:
		transformOutputGeneric(6, 4, at4Rows, src, dst)
	default:
		panic("winograd: unknown variant")
	}
}

// transformOutput2 is the hand-scheduled F(2x2,3x3) output transform; the
// paper counts 24 float additions for it. It reads the 4x4 accumulated
// tile from m, element e at m[e*stride], and writes the 2x2 result at
// out[0], out[sw], out[sh] and out[sh+sw], so the fused forward can
// read a tile out of its accumulators and store it in place.
func transformOutput2(m []float32, stride int, out []float32, sh, sw int) {
	m = m[:15*stride+1]
	// t0, t1 = the rows of A^T * m: m0 + m1 + m2 and m1 - m2 - m3.
	var t0, t1 [4]float32
	for c := range t0 {
		m0, m1, m2, m3 := m[c*stride], m[(4+c)*stride], m[(8+c)*stride], m[(12+c)*stride]
		t0[c] = m0 + m1 + m2
		t1[c] = m1 - m2 - m3
	}
	out = out[:sh+sw+1]
	out[0] = t0[0] + t0[1] + t0[2]
	out[sw] = t0[1] - t0[2] - t0[3]
	out[sh] = t1[0] + t1[1] + t1[2]
	out[sh+sw] = t1[1] - t1[2] - t1[3]
}

// transformOutputGeneric computes At (m x t) * src (t x t) * At^T, t <= 6.
func transformOutputGeneric(t, m int, at [][]float32, src, dst []float32) {
	var tmp [maxArea]float32
	for i := 0; i < m; i++ {
		for j := 0; j < t; j++ {
			var acc float32
			for p := 0; p < t; p++ {
				acc += float32(at[i][p] * src[p*t+j])
			}
			tmp[i*t+j] = acc
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var acc float32
			for p := 0; p < t; p++ {
				acc += float32(tmp[i*t+p] * at[j][p])
			}
			dst[i*m+j] = acc
		}
	}
}
