package winograd

import "repro/internal/tensor"

// VariantError estimates the float32 numerical error of the F(m x m, 3x3)
// Winograd variant: it runs `trials` random tiles through the transform
// with float32 rounding after every matrix stage and compares against a
// float64 direct correlation, returning the maximum relative error. It
// quantifies the paper's Section 8.1 remark that variants beyond
// F(4x4,3x3) "may bring numerical issue".
func VariantError(m, trials int, seed uint64) (float64, error) {
	tr, err := NewGeneralTransform(m, 3)
	if err != nil {
		return 0, err
	}
	rng := tensor.NewRNG(seed)
	n := tr.N
	var maxRel float64
	for trial := 0; trial < trials; trial++ {
		d := make([]float64, n*n)
		g := make([]float64, 9)
		for i := range d {
			d[i] = float64(rng.Float32())
		}
		for i := range g {
			g[i] = float64(rng.Float32())
		}
		got := tr.conv2D32(d, g)
		want := direct2D64(d, g, n, 3, m)
		for i := range want {
			scale := 1.0
			if a := abs64(want[i]); a > scale {
				scale = a
			}
			if rel := abs64(float64(got[i])-want[i]) / scale; rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel, nil
}

// conv2D32 is Conv2D with float32 rounding injected after each stage,
// mimicking a single-precision kernel.
func (t *GeneralTransform) conv2D32(d, g []float64) []float32 {
	gh := round32(nestedTransform(t.G, g, t.R, t.N))
	dh := round32(nestedTransform(t.Bt, d, t.N, t.N))
	prod := make([]float64, len(dh))
	for i := range prod {
		prod[i] = float64(float32(gh[i]) * float32(dh[i]))
	}
	out := round32(nestedTransform(t.At, prod, t.N, t.M))
	out32 := make([]float32, len(out))
	for i, v := range out {
		out32[i] = float32(v)
	}
	return out32
}

func round32(xs []float64) []float64 {
	for i, v := range xs {
		xs[i] = float64(float32(v))
	}
	return xs
}

// direct2D64 is the float64 direct convolution of one m x m output
// tile; each product is rounded before its add, as in nestedTransform.
func direct2D64(d, g []float64, n, r, m int) []float64 {
	out := make([]float64, m*m)
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			var acc float64
			for ry := 0; ry < r; ry++ {
				for rx := 0; rx < r; rx++ {
					acc += float64(d[(y+ry)*n+(x+rx)] * g[ry*r+rx])
				}
			}
			out[y*m+x] = acc
		}
	}
	return out
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
