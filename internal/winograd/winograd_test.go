package winograd

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/conv"
	"repro/internal/tensor"
)

func TestVariantProperties(t *testing.T) {
	if F2x2.M() != 2 || F2x2.T() != 4 || F2x2.TileArea() != 16 {
		t.Fatalf("F2x2 geometry wrong: m=%d t=%d area=%d", F2x2.M(), F2x2.T(), F2x2.TileArea())
	}
	if F4x4.M() != 4 || F4x4.T() != 6 || F4x4.TileArea() != 36 {
		t.Fatalf("F4x4 geometry wrong")
	}
	if r := F2x2.MulReduction(); r != 2.25 {
		t.Fatalf("F2x2 reduction = %v, want 2.25 (paper Section 1)", r)
	}
	if r := F4x4.MulReduction(); r != 4 {
		t.Fatalf("F4x4 reduction = %v, want 4 (paper Section 7.3)", r)
	}
	if F2x2.String() != "F(2x2,3x3)" || F4x4.String() != "F(4x4,3x3)" {
		t.Fatalf("variant names: %s %s", F2x2, F4x4)
	}
}

// winogradTile2 computes one 2x2 output tile via Equation 1 of the paper:
// O = A^T [(G f G^T) .* (B^T d B)] A.
func winogradTile2(v Variant, d []float32, f *FilterTile3) []float32 {
	area := v.TileArea()
	fh := make([]float32, area)
	ih := make([]float32, area)
	TransformFilterTile(v, f, fh)
	TransformInputTile(v, d, ih)
	for i := range fh {
		fh[i] *= ih[i]
	}
	m := v.M()
	out := make([]float32, m*m)
	TransformOutputTile(v, fh, out)
	return out
}

// directTile computes an m x m valid correlation of a t x t tile with a
// 3x3 filter — the identity the minimal filtering algorithm must match.
func directTile(v Variant, d []float32, f *FilterTile3) []float32 {
	m, tt := v.M(), v.T()
	out := make([]float32, m*m)
	for y := 0; y < m; y++ {
		for x := 0; x < m; x++ {
			var acc float32
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					acc += d[(y+r)*tt+(x+s)] * f[r*3+s]
				}
			}
			out[y*m+x] = acc
		}
	}
	return out
}

func tilesClose(a, b []float32, tol float32) bool {
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		scale := float32(1)
		if aa := abs32(a[i]); aa > scale {
			scale = aa
		}
		if d > tol*scale {
			return false
		}
	}
	return true
}

func abs32(x float32) float32 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: the core Winograd identity O = A^T[(GfG^T) .* (B^T d B)]A
// equals direct 2x2 (or 4x4) correlation for arbitrary tiles.
func TestMinimalFilteringIdentityProperty(t *testing.T) {
	for _, v := range []Variant{F2x2, F4x4} {
		v := v
		f := func(seed uint64) bool {
			r := tensor.NewRNG(seed)
			tt := v.T()
			d := make([]float32, tt*tt)
			var flt FilterTile3
			for i := range d {
				d[i] = r.Float32()
			}
			for i := range flt {
				flt[i] = r.Float32()
			}
			got := winogradTile2(v, d, &flt)
			want := directTile(v, d, &flt)
			return tilesClose(got, want, 1e-4)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
}

func TestFilterTransformKnownValue(t *testing.T) {
	// All-ones 3x3 filter: G*1*G^T has known entries; e.g. centre of
	// F(2x2,3x3) transform is (sum of row halves) = 2.25 at (1,1).
	f := FilterTile3{1, 1, 1, 1, 1, 1, 1, 1, 1}
	dst := make([]float32, 16)
	TransformFilterTile(F2x2, &f, dst)
	// Row combinations of all-ones: [1, 1.5, 0.5, 1] in each direction.
	want := []float32{
		1, 1.5, 0.5, 1,
		1.5, 2.25, 0.75, 1.5,
		0.5, 0.75, 0.25, 0.5,
		1, 1.5, 0.5, 1,
	}
	if !tilesClose(dst, want, 1e-6) {
		t.Fatalf("transform = %v, want %v", dst, want)
	}
}

func TestInputTransformMatchesGenericMatrix(t *testing.T) {
	// The hand-scheduled F(2x2) input transform must equal the generic
	// matrix product with BT2.
	r := tensor.NewRNG(20)
	d := make([]float32, 16)
	for i := range d {
		d[i] = r.Float32()
	}
	fast := make([]float32, 16)
	transformInput2(d, fast)
	bt := make([][]float32, 4)
	for i := range bt {
		bt[i] = BT2[i][:]
	}
	slow := make([]float32, 16)
	transformInputGeneric(4, bt, d, slow)
	if !tilesClose(fast, slow, 1e-6) {
		t.Fatalf("fast %v != generic %v", fast, slow)
	}
}

func TestOutputTransformMatchesGenericMatrix(t *testing.T) {
	r := tensor.NewRNG(21)
	m := make([]float32, 16)
	for i := range m {
		m[i] = r.Float32()
	}
	fast := make([]float32, 4)
	transformOutput2(m, 1, fast, 2, 1)
	at := make([][]float32, 2)
	for i := range at {
		at[i] = AT2[i][:]
	}
	slow := make([]float32, 4)
	transformOutputGeneric(4, 2, at, m, slow)
	if !tilesClose(fast, slow, 1e-6) {
		t.Fatalf("fast %v != generic %v", fast, slow)
	}
}

func convCase(t *testing.T, s tensor.Shape4, k, pad int, prepare func(*tensor.Tensor) (Filter, error), layout tensor.Layout, fltLayout tensor.Layout) {
	t.Helper()
	in := tensor.NewImage(layout, s)
	in.FillRandom(31)
	flt := tensor.NewFilter(fltLayout, tensor.FilterShape{K: k, C: s.C, R: 3, S: 3})
	flt.FillRandom(32)
	want, err := conv.DirectParallel(in, flt, conv.Params{Pad: pad})
	if err != nil {
		t.Fatal(err)
	}
	f, err := prepare(flt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Conv(in, &f, pad)
	if err != nil {
		t.Fatal(err)
	}
	gotN := got.ToLayout(tensor.NCHW)
	if d := tensor.MaxRelDiff(want, gotN); d > 2e-4 {
		t.Fatalf("winograd (non-fused %v) differs from direct by %v", f.nonFused, d)
	}
}

func TestFusedF2MatchesDirect(t *testing.T) {
	convCase(t, tensor.Shape4{N: 2, C: 5, H: 8, W: 8}, 7, 1, PrepareFused, tensor.NCHW, tensor.KCRS)
}

func TestFusedF2OddSizesPartialTiles(t *testing.T) {
	// 7x7 output (ResNet Conv5 size): partial tiles at the edge.
	convCase(t, tensor.Shape4{N: 3, C: 4, H: 7, W: 7}, 5, 1, PrepareFused, tensor.NCHW, tensor.KCRS)
}

func TestFusedF2NoPad(t *testing.T) {
	convCase(t, tensor.Shape4{N: 1, C: 3, H: 10, W: 6}, 2, 0, PrepareFused, tensor.NCHW, tensor.KCRS)
}

func TestFusedF2CHWNLayout(t *testing.T) {
	convCase(t, tensor.Shape4{N: 4, C: 3, H: 6, W: 6}, 4, 1, PrepareFused, tensor.CHWN, tensor.CRSK)
}

// TestFusedF2BlockRemainders: a shape whose blocks do not divide it
// reaches every remainder of ewmm at the fixed blocking. K=70 leaves a
// 6-filter block: one group of 4 filters and 2 left over. C=13 leaves a
// 5-channel step. The 75 tiles split 32/32/11, so the last block's tile
// count is odd.
func TestFusedF2BlockRemainders(t *testing.T) {
	convCase(t, tensor.Shape4{N: 3, C: 13, H: 9, W: 9}, 70, 1, PrepareFused, tensor.NCHW, tensor.KCRS)
}

func TestNonFusedF4MatchesDirect(t *testing.T) {
	convCase(t, tensor.Shape4{N: 2, C: 3, H: 14, W: 14}, 4, 1, PrepareNonFused, tensor.NCHW, tensor.KCRS)
}

func TestConv2DRejectsNon3x3(t *testing.T) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 1, H: 8, W: 8})
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 1, R: 5, S: 5})
	if _, err := Conv2D(in, flt, 1); err == nil {
		t.Fatal("expected error for 5x5 filter")
	}
}

func TestConv2DRejectsChannelMismatch(t *testing.T) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 2, H: 8, W: 8})
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 3, R: 3, S: 3})
	if _, err := Conv2D(in, flt, 1); err == nil {
		t.Fatal("expected channel mismatch error")
	}
}

// TestFusedBitsIndependentOfWorkers: blocks write disjoint outputs and
// each element's summation order is fixed, so the fused result is the
// same bits at any worker count — on a shape with several blocks along
// both K and N, partial edge tiles, and a channel tail (C%8 != 0).
func TestFusedBitsIndependentOfWorkers(t *testing.T) {
	in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: 5, C: 19, H: 7, W: 9})
	in.FillRandom(41)
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 70, C: 19, R: 3, S: 3})
	flt.FillRandom(42)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref *tensor.Tensor
	for _, w := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(w) // the worker count of every par.For loop
		got, err := Conv2D(in, flt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range ref.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(ref.Data[i]) {
				t.Fatalf("workers=%d: element %d is %v, workers=1 gave %v", w, i, got.Data[i], ref.Data[i])
			}
		}
	}
}

// TestFusedAllocsPinned: the fused path's buffers are fixed arrays
// recycled across blocks and calls, and the filter transform works in a
// stack tile, so a forward pass allocates a small constant — not one
// slice per (c, k) filter or per block — for a full batch and for one
// image zero-padded to N=32 alike. AllocsPerRun runs at GOMAXPROCS 1, so
// every par.For loop runs inline: the pins count the convolution's own
// allocations, not the per-worker goroutines of a parallel run.
func TestFusedAllocsPinned(t *testing.T) {
	full := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: 32, C: 8, H: 6, W: 6})
	full.FillRandom(1)
	padded := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: 32, C: 8, H: 6, W: 6})
	for c := 0; c < 8; c++ {
		for h := 0; h < 6; h++ {
			for w := 0; w < 6; w++ {
				padded.ImageSet(0, c, h, w, full.ImageAt(0, c, h, w))
			}
		}
	}
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 64, C: 8, R: 3, S: 3})
	flt.FillRandom(2)
	if n := testing.AllocsPerRun(20, func() { FilterTransformAll(flt, F2x2) }); n > 4 {
		t.Errorf("FilterTransformAll: %v allocs/op, want <= 4", n)
	}
	for _, tc := range []struct {
		name string
		in   *tensor.Tensor
	}{{"full", full}, {"filled1", padded}} {
		if n := testing.AllocsPerRun(20, func() {
			if _, err := Conv2D(tc.in, flt, 1); err != nil {
				t.Fatal(err)
			}
		}); n > 10 {
			t.Errorf("fused Conv2D %s: %v allocs/op, want <= 10", tc.name, n)
		}
	}
}

// TestNonFusedAllocsPinned: the F(4x4,3x3) tile transforms work in
// stack arrays, so a non-fused forward pass allocates its workspaces and
// a constant — not one scratch slice per tile (9,759 allocs/op on this
// shape when they did). As above, the par.For loops run inline.
func TestNonFusedAllocsPinned(t *testing.T) {
	in := tensor.NewImage(tensor.CHWN, tensor.Shape4{N: 32, C: 8, H: 6, W: 6})
	in.FillRandom(1)
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: 64, C: 8, R: 3, S: 3})
	flt.FillRandom(2)
	f, err := PrepareNonFused(flt)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Conv(in, &f, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 14 {
		t.Errorf("non-fused Conv: %v allocs/op, want <= 14", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		f, err := PrepareNonFused(flt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Conv(in, &f, 1); err != nil {
			t.Fatal(err)
		}
	}); n > 24 {
		t.Errorf("non-fused PrepareNonFused+Conv: %v allocs/op, want <= 24", n)
	}
}

func TestConv2DRejectsTinyInput(t *testing.T) {
	in := tensor.NewImage(tensor.NCHW, tensor.Shape4{N: 1, C: 1, H: 2, W: 2})
	flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: 1, C: 1, R: 3, S: 3})
	if _, err := Conv2D(in, flt, 0); err == nil {
		t.Fatal("expected empty-output error")
	}
}

// Property: fused F(2x2,3x3) and non-fused F(4x4,3x3) agree with direct
// for random shapes.
func TestWinogradAgreesWithDirectProperty(t *testing.T) {
	f := func(seed uint64, nRaw, cRaw, kRaw, hRaw uint8) bool {
		s := tensor.Shape4{
			N: int(nRaw%3) + 1, C: int(cRaw%4) + 1,
			H: int(hRaw%9) + 4, W: int(hRaw%9) + 4,
		}
		k := int(kRaw%5) + 1
		in := tensor.NewImage(tensor.NCHW, s)
		in.FillRandom(seed)
		flt := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: k, C: s.C, R: 3, S: 3})
		flt.FillRandom(seed ^ 0xabcdef)
		want, err := conv.Direct(in, flt, conv.Params{Pad: 1})
		if err != nil {
			return false
		}
		fused, err := Conv2D(in, flt, 1)
		if err != nil {
			return false
		}
		nf, err := PrepareNonFused(flt)
		if err != nil {
			return false
		}
		nonfused, err := Conv(in, &nf, 1)
		if err != nil {
			return false
		}
		return tensor.MaxRelDiff(want, fused.ToLayout(tensor.NCHW)) <= 2e-4 &&
			tensor.MaxRelDiff(want, nonfused.ToLayout(tensor.NCHW)) <= 2e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestFilterTransformAllLayout(t *testing.T) {
	// FilterTransformAll must store element e, channel c, filter k at
	// e*C*K + c*K + k and agree with per-tile transforms.
	fs := tensor.FilterShape{K: 3, C: 2, R: 3, S: 3}
	flt := tensor.NewFilter(tensor.KCRS, fs)
	flt.FillRandom(77)
	all := FilterTransformAll(flt, F2x2)
	if len(all) != 16*fs.C*fs.K {
		t.Fatalf("len = %d", len(all))
	}
	for c := 0; c < fs.C; c++ {
		for k := 0; k < fs.K; k++ {
			var f FilterTile3
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					f[r*3+s] = flt.FilterAt(k, c, r, s)
				}
			}
			want := make([]float32, 16)
			TransformFilterTile(F2x2, &f, want)
			for e := 0; e < 16; e++ {
				if got := all[e*fs.C*fs.K+c*fs.K+k]; got != want[e] {
					t.Fatalf("element (e=%d,c=%d,k=%d) = %v, want %v", e, c, k, got, want[e])
				}
			}
		}
	}
}

// BT2 is the 4x4 input-transform matrix B^T for F(2x2,3x3).
var BT2 = [4][4]float32{
	{1, 0, -1, 0},
	{0, 1, 1, 0},
	{0, -1, 1, 0},
	{0, 1, 0, -1},
}

// AT2 is the 2x4 output-transform matrix A^T for F(2x2,3x3).
var AT2 = [2][4]float32{
	{1, 1, 1, 0},
	{0, 1, -1, -1},
}
