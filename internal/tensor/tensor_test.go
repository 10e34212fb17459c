package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLayoutString(t *testing.T) {
	cases := map[Layout]string{
		NCHW: "NCHW", CHWN: "CHWN", KCRS: "KCRS", CRSK: "CRSK", KHWN: "KHWN",
		Layout(42): "Layout(42)",
	}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Layout(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestIndexRowMajor(t *testing.T) {
	tt := New(NCHW, 2, 3, 4, 5)
	want := 0
	for a := 0; a < 2; a++ {
		for b := 0; b < 3; b++ {
			for c := 0; c < 4; c++ {
				for d := 0; d < 5; d++ {
					if got := tt.Index(a, b, c, d); got != want {
						t.Fatalf("Index(%d,%d,%d,%d) = %d, want %d", a, b, c, d, got, want)
					}
					want++
				}
			}
		}
	}
	if tt.Len() != want {
		t.Fatalf("Len = %d, want %d", tt.Len(), want)
	}
}

func TestSetAtRoundtrip(t *testing.T) {
	tt := New(CHWN, 3, 2, 2, 4)
	tt.Set(2, 1, 0, 3, 7.5)
	if got := tt.At(2, 1, 0, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestImageLayoutConversionPreservesLogicalValues(t *testing.T) {
	s := Shape4{N: 3, C: 5, H: 4, W: 6}
	a := NewImage(NCHW, s)
	a.FillRandom(1)
	b := a.ToLayout(CHWN)
	c := b.ToLayout(NCHW)
	for n := 0; n < s.N; n++ {
		for ch := 0; ch < s.C; ch++ {
			for h := 0; h < s.H; h++ {
				for w := 0; w < s.W; w++ {
					if a.ImageAt(n, ch, h, w) != b.ImageAt(n, ch, h, w) {
						t.Fatalf("NCHW->CHWN mismatch at (%d,%d,%d,%d)", n, ch, h, w)
					}
				}
			}
		}
	}
	if MaxRelDiff(a, c) != 0 {
		t.Fatal("NCHW->CHWN->NCHW roundtrip changed data")
	}
}

func TestFilterLayoutConversionPreservesLogicalValues(t *testing.T) {
	fs := FilterShape{K: 4, C: 3, R: 3, S: 3}
	a := NewFilter(KCRS, fs)
	a.FillRandom(2)
	b := a.ToFilterLayout(CRSK)
	for k := 0; k < fs.K; k++ {
		for c := 0; c < fs.C; c++ {
			for r := 0; r < fs.R; r++ {
				for s := 0; s < fs.S; s++ {
					if a.FilterAt(k, c, r, s) != b.FilterAt(k, c, r, s) {
						t.Fatalf("KCRS->CRSK mismatch at (%d,%d,%d,%d)", k, c, r, s)
					}
				}
			}
		}
	}
	c2 := b.ToFilterLayout(KCRS)
	if MaxRelDiff(a, c2) != 0 {
		t.Fatal("KCRS->CRSK->KCRS roundtrip changed data")
	}
}

func TestImageShapeReportsLogicalDims(t *testing.T) {
	a := NewImage(CHWN, Shape4{N: 7, C: 2, H: 3, W: 5})
	s := a.ImageShape()
	if s.N != 7 || s.C != 2 || s.H != 3 || s.W != 5 {
		t.Fatalf("ImageShape = %+v", s)
	}
}

func TestKHWNBehavesAsImage(t *testing.T) {
	a := New(KHWN, 2, 3, 3, 4) // K=2, H=3, W=3, N=4
	a.ImageSet(1, 0, 2, 2, 3.25)
	if got := a.ImageAt(1, 0, 2, 2); got != 3.25 {
		t.Fatalf("KHWN ImageAt = %v", got)
	}
	n := a.ToLayout(NCHW)
	if got := n.ImageAt(1, 0, 2, 2); got != 3.25 {
		t.Fatalf("KHWN->NCHW ImageAt = %v", got)
	}
}

func TestImageStridesMatchImageAt(t *testing.T) {
	s := Shape4{N: 3, C: 2, H: 4, W: 5}
	for _, a := range []*Tensor{NewImage(NCHW, s), NewImage(CHWN, s), New(KHWN, s.C, s.H, s.W, s.N)} {
		a.FillRandom(9)
		sn, sc, sh, sw := a.ImageStrides()
		for n := 0; n < s.N; n++ {
			for c := 0; c < s.C; c++ {
				for h := 0; h < s.H; h++ {
					for w := 0; w < s.W; w++ {
						if got, want := a.Data[n*sn+c*sc+h*sh+w*sw], a.ImageAt(n, c, h, w); got != want {
							t.Fatalf("%v (%d,%d,%d,%d): strided %v, ImageAt %v", a.Layout, n, c, h, w, got, want)
						}
					}
				}
			}
		}
	}
}

func TestMaxRelDiff(t *testing.T) {
	a := New(NCHW, 1, 1, 1, 3)
	b := New(NCHW, 1, 1, 1, 3)
	a.Data = []float32{100, 0, 0.5}
	b.Data = []float32{101, 0, 0.5}
	got := MaxRelDiff(a, b)
	want := 1.0 / 101.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("MaxRelDiff = %v, want %v", got, want)
	}
}

func TestMaxDiffPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MaxRelDiff(New(NCHW, 1, 1, 1, 2), New(NCHW, 1, 1, 1, 3))
}

func TestRNGDeterministic(t *testing.T) {
	a := New(NCHW, 1, 1, 4, 4)
	b := New(NCHW, 1, 1, 4, 4)
	a.FillRandom(42)
	b.FillRandom(42)
	if MaxRelDiff(a, b) != 0 {
		t.Fatal("same seed must give same data")
	}
	b.FillRandom(43)
	if MaxRelDiff(a, b) == 0 {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGFloat32Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		v := r.Float32()
		if v < -1 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestRNGZeroSeedIsRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce a stuck generator")
	}
}

// Property: conversion between image layouts never changes any logical
// element, for arbitrary shapes.
func TestLayoutConversionProperty(t *testing.T) {
	f := func(seed uint64, nRaw, cRaw, hRaw, wRaw uint8) bool {
		s := Shape4{
			N: int(nRaw%4) + 1, C: int(cRaw%4) + 1,
			H: int(hRaw%6) + 1, W: int(wRaw%6) + 1,
		}
		a := NewImage(NCHW, s)
		a.FillRandom(seed)
		b := a.ToLayout(CHWN).ToLayout(NCHW)
		return MaxRelDiff(a, b) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
