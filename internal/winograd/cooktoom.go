package winograd

import "fmt"

// This file implements the Cook-Toom construction behind Winograd's
// minimal filtering algorithms: for output size m and filter size r it
// derives the A^T, G, B^T transform matrices from a set of interpolation
// points, generalizing the fixed F(2x2,3x3)/F(4x4,3x3) matrices. The
// paper's Section 8.1 notes that larger variants "like F(6x6,3x3) may
// bring numerical issue"; this generator lets the repository measure that
// claim directly (see the numerics experiment and tests).

// GeneralTransform holds the 1-D transform matrices of F(m, r):
// output y = At (n x ... ) [ (G g) .* (Bt d) ] with n = m + r - 1.
type GeneralTransform struct {
	M, R, N int
	At      [][]float64 // m x n
	G       [][]float64 // n x r
	Bt      [][]float64 // n x n
	Points  []float64
}

// defaultPoints returns the customary interpolation points for n-1 finite
// points: 0, 1, -1, 2, -2, 1/2, -1/2, 4, -4, ... (the final "point at
// infinity" is implicit in the construction).
func defaultPoints(count int) []float64 {
	pts := []float64{0}
	mag := 1.0
	for len(pts) < count {
		pts = append(pts, mag)
		if len(pts) < count {
			pts = append(pts, -mag)
		}
		if mag >= 1 {
			if mag == 1 {
				mag = 2
			} else if mag == 2 {
				mag = 0.5
			} else {
				mag *= 2
			}
		} else {
			mag = 1 / mag * 2 // 0.5 -> 4, 0.25 -> ...
		}
	}
	return pts[:count]
}

// NewGeneralTransform builds F(m, r) transforms from the default points.
func NewGeneralTransform(m, r int) (*GeneralTransform, error) {
	if m < 1 || r < 1 {
		return nil, fmt.Errorf("winograd: F(%d,%d) is degenerate", m, r)
	}
	n := m + r - 1
	return NewGeneralTransformWithPoints(m, r, defaultPoints(n-1))
}

// NewGeneralTransformWithPoints builds F(m, r) from explicit finite
// interpolation points (n-1 of them; the last evaluation point is at
// infinity, the Cook-Toom convention).
func NewGeneralTransformWithPoints(m, r int, pts []float64) (*GeneralTransform, error) {
	n := m + r - 1
	if len(pts) != n-1 {
		return nil, fmt.Errorf("winograd: F(%d,%d) needs %d points, got %d", m, r, n-1, len(pts))
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i] == pts[j] {
				return nil, fmt.Errorf("winograd: duplicate interpolation point %v", pts[i])
			}
		}
	}

	// A^T (m x n): row i evaluates the degree-(m-1) monomials at the
	// points; the infinity column picks the top coefficient.
	at := zeros(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n-1; j++ {
			at[i][j] = powf(pts[j], i)
		}
	}
	at[m-1][n-1] = 1

	// G (n x r): row j evaluates the filter polynomial at point j,
	// scaled by 1/f'(p_j) where f(x) = prod (x - p_l); infinity row
	// takes the filter's top coefficient.
	g := zeros(n, r)
	for j := 0; j < n-1; j++ {
		scale := 1.0
		for l := 0; l < n-1; l++ {
			if l != j {
				scale *= pts[j] - pts[l]
			}
		}
		for k := 0; k < r; k++ {
			g[j][k] = powf(pts[j], k) / scale
		}
	}
	g[n-1][r-1] = 1

	// B^T (n x n): row j < n-1 holds the coefficients of
	// f(x)/(x - p_j) (degree n-2); the last row holds f(x) itself.
	bt := zeros(n, n)
	full := polyFromRoots(pts)
	for j := 0; j < n-1; j++ {
		quotient := polyFromRoots(removeIndex(pts, j))
		copy(bt[j], quotient)
	}
	copy(bt[n-1], full)

	return &GeneralTransform{M: m, R: r, N: n, At: at, G: g, Bt: bt, Points: pts}, nil
}

// MulCount reports the element-wise multiplications of the 2-D algorithm
// and the direct method, and their ratio (the paper's 2.25x for
// F(2x2,3x3), 4x for F(4x4,3x3)).
func (t *GeneralTransform) MulCount() (winograd, direct int, reduction float64) {
	winograd = t.N * t.N
	direct = t.M * t.M * t.R * t.R
	return winograd, direct, float64(direct) / float64(winograd)
}

// nestedTransform computes T x T^T for a rows-in x rows-in tile where T is
// rowsOut x rowsIn.
func nestedTransform(tm [][]float64, tile []float64, rowsIn, rowsOut int) []float64 {
	tmp := make([]float64, rowsOut*rowsIn)
	for i := 0; i < rowsOut; i++ {
		for j := 0; j < rowsIn; j++ {
			var acc float64
			for p := 0; p < rowsIn; p++ {
				acc += tm[i][p] * tile[p*rowsIn+j]
			}
			tmp[i*rowsIn+j] = acc
		}
	}
	out := make([]float64, rowsOut*rowsOut)
	for i := 0; i < rowsOut; i++ {
		for j := 0; j < rowsOut; j++ {
			var acc float64
			for p := 0; p < rowsIn; p++ {
				acc += tmp[i*rowsIn+p] * tm[j][p]
			}
			out[i*rowsOut+j] = acc
		}
	}
	return out
}

func zeros(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}

func powf(x float64, k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= x
	}
	return v
}

// polyFromRoots returns the coefficients (x^0 first, len(roots)+1 of
// them) of prod (x - r_i).
func polyFromRoots(roots []float64) []float64 {
	coef := []float64{1}
	for _, root := range roots {
		next := make([]float64, len(coef)+1)
		for i, c := range coef {
			next[i+1] += c       // x * p(x)
			next[i] += -root * c // -root * p(x)
		}
		coef = next
	}
	return coef
}

func removeIndex(xs []float64, idx int) []float64 {
	out := make([]float64, 0, len(xs)-1)
	for i, x := range xs {
		if i != idx {
			out = append(out, x)
		}
	}
	return out
}
