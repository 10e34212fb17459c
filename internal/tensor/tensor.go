// Package tensor provides dense 4-D single-precision tensors in the data
// layouts used by batched convolution: NCHW (cuDNN default), CHWN (the
// layout the paper's kernel consumes), KCRS filters and the transformed
// CRSK filter layout. A Tensor is a flat float32 buffer plus a shape and a
// layout tag; helpers convert between layouts and compare results with a
// relative-error tolerance.
package tensor

import (
	"fmt"
	"math"
)

// Layout names the memory order of a 4-D tensor. The letters give the
// dimensions from slowest-varying to fastest-varying.
type Layout int

const (
	// NCHW is batch, channel, height, width — cuDNN's default layout.
	NCHW Layout = iota
	// CHWN is channel, height, width, batch — the paper's input layout,
	// which makes global loads of 32 consecutive batch elements coalesced.
	CHWN
	// KCRS is filterCount, channel, filterHeight, filterWidth.
	KCRS
	// CRSK is channel, filterHeight, filterWidth, filterCount — the
	// paper's transformed-filter layout (called CR'S'K in the text).
	CRSK
	// KHWN is filterCount, height, width, batch — the paper's output layout.
	KHWN
)

// String returns the dimension-order name of the layout.
func (l Layout) String() string {
	switch l {
	case NCHW:
		return "NCHW"
	case CHWN:
		return "CHWN"
	case KCRS:
		return "KCRS"
	case CRSK:
		return "CRSK"
	case KHWN:
		return "KHWN"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Tensor is a dense 4-D float32 tensor. Dims holds the extent of each of
// the four logical dimensions in the order given by Layout; Data is in
// row-major order with Dims[3] fastest.
type Tensor struct {
	Layout Layout
	Dims   [4]int
	Data   []float32
}

// New allocates a zeroed tensor with the given layout and dimensions
// (in layout order, slowest first).
func New(layout Layout, d0, d1, d2, d3 int) *Tensor {
	if d0 < 0 || d1 < 0 || d2 < 0 || d3 < 0 {
		panic(fmt.Sprintf("tensor: negative dimension (%d,%d,%d,%d)", d0, d1, d2, d3))
	}
	return &Tensor{
		Layout: layout,
		Dims:   [4]int{d0, d1, d2, d3},
		Data:   make([]float32, d0*d1*d2*d3),
	}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Index returns the flat offset of logical coordinates (i0,i1,i2,i3) given
// in layout order.
func (t *Tensor) Index(i0, i1, i2, i3 int) int {
	return ((i0*t.Dims[1]+i1)*t.Dims[2]+i2)*t.Dims[3] + i3
}

// At returns the element at layout-order coordinates.
func (t *Tensor) At(i0, i1, i2, i3 int) float32 {
	return t.Data[t.Index(i0, i1, i2, i3)]
}

// Set stores v at layout-order coordinates.
func (t *Tensor) Set(i0, i1, i2, i3 int, v float32) {
	t.Data[t.Index(i0, i1, i2, i3)] = v
}

// Shape4 describes a batched image as (N, C, H, W) independent of layout.
type Shape4 struct {
	N, C, H, W int
}

// NewImage allocates an image tensor of logical shape (N,C,H,W) in the
// given layout (NCHW, CHWN, or KHWN with K in the role of C).
func NewImage(layout Layout, s Shape4) *Tensor {
	switch layout {
	case NCHW:
		return New(NCHW, s.N, s.C, s.H, s.W)
	case CHWN, KHWN:
		return New(layout, s.C, s.H, s.W, s.N)
	default:
		panic("tensor: NewImage wants NCHW, CHWN or KHWN, got " + layout.String())
	}
}

// ImageShape reports the logical (N,C,H,W) shape of an NCHW or CHWN tensor.
func (t *Tensor) ImageShape() Shape4 {
	switch t.Layout {
	case NCHW:
		return Shape4{N: t.Dims[0], C: t.Dims[1], H: t.Dims[2], W: t.Dims[3]}
	case CHWN:
		return Shape4{C: t.Dims[0], H: t.Dims[1], W: t.Dims[2], N: t.Dims[3]}
	case KHWN:
		return Shape4{C: t.Dims[0], H: t.Dims[1], W: t.Dims[2], N: t.Dims[3]}
	default:
		panic("tensor: ImageShape on non-image layout " + t.Layout.String())
	}
}

// ImageAt reads logical (n, c, h, w) regardless of the storage layout.
func (t *Tensor) ImageAt(n, c, h, w int) float32 {
	switch t.Layout {
	case NCHW:
		return t.At(n, c, h, w)
	case CHWN, KHWN:
		return t.At(c, h, w, n)
	default:
		panic("tensor: ImageAt on non-image layout " + t.Layout.String())
	}
}

// ImageSet writes logical (n, c, h, w) regardless of the storage layout.
func (t *Tensor) ImageSet(n, c, h, w int, v float32) {
	switch t.Layout {
	case NCHW:
		t.Set(n, c, h, w, v)
	case CHWN, KHWN:
		t.Set(c, h, w, n, v)
	default:
		panic("tensor: ImageSet on non-image layout " + t.Layout.String())
	}
}

// ImageStrides returns the flat-offset strides of logical (n, c, h, w) in
// an NCHW, CHWN or KHWN tensor: element (n, c, h, w) lives at
// Data[n*sn + c*sc + h*sh + w*sw]. Hot loops index Data with these
// instead of dispatching on the layout per element as ImageAt does.
func (t *Tensor) ImageStrides() (sn, sc, sh, sw int) {
	s := t.ImageShape()
	switch t.Layout {
	case NCHW:
		return s.C * s.H * s.W, s.H * s.W, s.W, 1
	default: // CHWN, KHWN; ImageShape has rejected everything else
		return 1, s.H * s.W * s.N, s.W * s.N, s.N
	}
}

// ToLayout returns a copy of t converted to the requested image layout.
// The source and destination must both be image layouts (NCHW/CHWN/KHWN);
// KHWN is treated as CHWN with K playing the role of C.
func (t *Tensor) ToLayout(layout Layout) *Tensor {
	s := t.ImageShape()
	out := NewImage(layout, s)
	for n := 0; n < s.N; n++ {
		for c := 0; c < s.C; c++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					out.ImageSet(n, c, h, w, t.ImageAt(n, c, h, w))
				}
			}
		}
	}
	return out
}

// FilterShape describes a filter bank as (K output channels, C input
// channels, R filter height, S filter width).
type FilterShape struct {
	K, C, R, S int
}

// NewFilter allocates a filter tensor in KCRS or CRSK layout.
func NewFilter(layout Layout, s FilterShape) *Tensor {
	switch layout {
	case KCRS:
		return New(KCRS, s.K, s.C, s.R, s.S)
	case CRSK:
		return New(CRSK, s.C, s.R, s.S, s.K)
	default:
		panic("tensor: NewFilter wants KCRS or CRSK, got " + layout.String())
	}
}

// FilterShapeOf reports the logical (K,C,R,S) shape of a filter tensor.
func (t *Tensor) FilterShapeOf() FilterShape {
	switch t.Layout {
	case KCRS:
		return FilterShape{K: t.Dims[0], C: t.Dims[1], R: t.Dims[2], S: t.Dims[3]}
	case CRSK:
		return FilterShape{C: t.Dims[0], R: t.Dims[1], S: t.Dims[2], K: t.Dims[3]}
	default:
		panic("tensor: FilterShapeOf on non-filter layout " + t.Layout.String())
	}
}

// FilterAt reads logical (k, c, r, s) regardless of the storage layout.
func (t *Tensor) FilterAt(k, c, r, s int) float32 {
	switch t.Layout {
	case KCRS:
		return t.At(k, c, r, s)
	case CRSK:
		return t.At(c, r, s, k)
	default:
		panic("tensor: FilterAt on non-filter layout " + t.Layout.String())
	}
}

// FilterSet writes logical (k, c, r, s) regardless of the storage layout.
func (t *Tensor) FilterSet(k, c, r, s int, v float32) {
	switch t.Layout {
	case KCRS:
		t.Set(k, c, r, s, v)
	case CRSK:
		t.Set(c, r, s, k, v)
	default:
		panic("tensor: FilterSet on non-filter layout " + t.Layout.String())
	}
}

// ToFilterLayout returns a copy of a filter tensor in the requested layout.
func (t *Tensor) ToFilterLayout(layout Layout) *Tensor {
	s := t.FilterShapeOf()
	out := NewFilter(layout, s)
	for k := 0; k < s.K; k++ {
		for c := 0; c < s.C; c++ {
			for r := 0; r < s.R; r++ {
				for ss := 0; ss < s.S; ss++ {
					out.FilterSet(k, c, r, ss, t.FilterAt(k, c, r, ss))
				}
			}
		}
	}
	return out
}

// MaxRelDiff returns max(|a-b| / max(1, |a|, |b|)), a scale-aware error
// metric robust near zero.
func MaxRelDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", len(a.Data), len(b.Data)))
	}
	var m float64
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		scale := math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
		d := math.Abs(x-y) / scale
		if d > m {
			m = d
		}
	}
	return m
}
