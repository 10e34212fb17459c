package winograd

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// direct1D is the oracle: m outputs of valid correlation.
func direct1D(d, g []float64, m int) []float64 {
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		for k := range g {
			out[i] += d[i+k] * g[k]
		}
	}
	return out
}

func direct2D(d, g []float64, n, r, m int) []float64 {
	out := make([]float64, m*m)
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			var acc float64
			for ry := 0; ry < r; ry++ {
				for rx := 0; rx < r; rx++ {
					acc += d[(y+ry)*n+(x+rx)] * g[ry*r+rx]
				}
			}
			out[y*m+x] = acc
		}
	}
	return out
}

func TestCookToomIdentity1DProperty(t *testing.T) {
	for _, mr := range [][2]int{{2, 3}, {4, 3}, {6, 3}, {2, 5}, {3, 3}, {8, 3}} {
		m, r := mr[0], mr[1]
		tr, err := NewGeneralTransform(m, r)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed uint64) bool {
			rng := tensor.NewRNG(seed)
			d := make([]float64, tr.N)
			g := make([]float64, r)
			for i := range d {
				d[i] = float64(rng.Float32())
			}
			for i := range g {
				g[i] = float64(rng.Float32())
			}
			got := tr.Conv1D(d, g)
			want := direct1D(d, g, m)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-6*math.Max(1, math.Abs(want[i])) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("F(%d,%d): %v", m, r, err)
		}
	}
}

func TestCookToomIdentity2DProperty(t *testing.T) {
	for _, m := range []int{2, 4, 6} {
		tr, err := NewGeneralTransform(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed uint64) bool {
			rng := tensor.NewRNG(seed)
			d := make([]float64, tr.N*tr.N)
			g := make([]float64, 9)
			for i := range d {
				d[i] = float64(rng.Float32())
			}
			for i := range g {
				g[i] = float64(rng.Float32())
			}
			got := tr.Conv2D(d, g)
			want := direct2D(d, g, tr.N, 3, m)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-5*math.Max(1, math.Abs(want[i])) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("F(%dx%d,3x3): %v", m, m, err)
		}
	}
}

func TestCookToomMatchesFixedF2Matrices(t *testing.T) {
	// The generator with points {0, 1, -1} must reproduce the paper's
	// Equation 2-3 matrices up to row order/sign conventions: check
	// behaviourally instead of structurally.
	tr, err := NewGeneralTransformWithPoints(2, 3, []float64{0, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	d := []float64{1, 2, 3, 4}
	g := []float64{0.5, -1, 2}
	got := tr.Conv1D(d, g)
	want := direct1D(d, g, 2)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestCookToomMulReduction(t *testing.T) {
	for _, tc := range []struct {
		m    int
		want float64
	}{{2, 2.25}, {4, 4.0}, {6, 5.0625}} {
		tr, err := NewGeneralTransform(tc.m, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, _, red := tr.MulCount()
		if math.Abs(red-tc.want) > 1e-9 {
			t.Fatalf("F(%dx%d,3x3) reduction = %v, want %v", tc.m, tc.m, red, tc.want)
		}
	}
}

func TestCookToomValidation(t *testing.T) {
	if _, err := NewGeneralTransform(0, 3); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := NewGeneralTransformWithPoints(2, 3, []float64{0, 0}); err == nil {
		t.Fatal("duplicate points must fail")
	}
	if _, err := NewGeneralTransformWithPoints(2, 3, []float64{0}); err == nil {
		t.Fatal("wrong point count must fail")
	}
}

// NumericalError measures float32 round-off of a variant against a
// float64 direct reference (used here and by the numerics experiment).
func TestNumericalErrorGrowsWithTileSize(t *testing.T) {
	errF := func(m int) float64 {
		e, err := VariantError(m, 500, 42)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e2, e4, e6 := errF(2), errF(4), errF(6)
	if !(e2 < e4 && e4 < e6) {
		t.Fatalf("errors must grow with tile size: F2=%g F4=%g F6=%g", e2, e4, e6)
	}
	// The paper's Section 8.1 concern: F(6x6,3x3) is markedly worse.
	if e6 < 10*e2 {
		t.Fatalf("F(6x6) error %g should dwarf F(2x2) error %g", e6, e2)
	}
}

// Conv1D computes the m outputs of a length-(m+r-1) signal correlated
// with a length-r filter through the transform, in float64.
func (t *GeneralTransform) Conv1D(d, g []float64) []float64 {
	if len(d) != t.N || len(g) != t.R {
		panic("winograd: Conv1D size mismatch")
	}
	gh := matVec(t.G, g)
	dh := matVec(t.Bt, d)
	prod := make([]float64, t.N)
	for i := range prod {
		prod[i] = gh[i] * dh[i]
	}
	return matVec(t.At, prod)
}

// Conv2D computes an m x m output tile from an n x n input tile and an
// r x r filter via the nested (2-D) transform.
func (t *GeneralTransform) Conv2D(d []float64, g []float64) []float64 {
	n, r, m := t.N, t.R, t.M
	if len(d) != n*n || len(g) != r*r {
		panic("winograd: Conv2D size mismatch")
	}
	// G g G^T.
	gh := nestedTransform(t.G, g, r, n)
	// B^T d B.
	dh := nestedTransform(t.Bt, d, n, n)
	for i := range dh {
		dh[i] *= gh[i]
	}
	// A^T (.) A.
	return nestedTransform(t.At, dh, n, m)
}

func matVec(m [][]float64, v []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		var acc float64
		for j, c := range row {
			acc += c * v[j]
		}
		out[i] = acc
	}
	return out
}
