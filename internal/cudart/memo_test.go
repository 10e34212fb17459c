package cudart

import (
	"math"
	"sync"
	"testing"

	"repro/internal/conv"
	"repro/internal/tensor"
	"repro/internal/tune"
	"repro/internal/winograd"
)

var (
	fusedOpt    = winograd.Options{Variant: winograd.F2x2}
	nonFusedOpt = winograd.Options{Variant: winograd.F4x4, NonFused: true}
)

// memoized reports whether Forward's memo holds a transform of exactly
// flt's bits for opt.
func memoized(flt *tensor.Tensor, opt winograd.Options) bool {
	filterTransforms.mu.Lock()
	defer filterTransforms.mu.Unlock()
	e := filterTransforms.m[keyOf(flt, opt)]
	return e != nil && sameBits(e.bits, flt.Data)
}

func clone(t *tensor.Tensor) *tensor.Tensor {
	return &tensor.Tensor{Layout: t.Layout, Dims: t.Dims, Data: append([]float32(nil), t.Data...)}
}

// forwardFused runs the fused path and requires WinogradConv's bits.
func forwardFused(t *testing.T, in, flt *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	got, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoFused})
	if err != nil {
		t.Fatal(err)
	}
	want, err := WinogradConv(in, flt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, got, want)
	return want
}

// TestForwardMemoFilterMutatedInPlace: a filter rewritten in place
// between two Forward calls is a new filter to the memo. The second call
// must compute with the new weights, on both memoized algorithms, so a
// stale transform would differ from the oracle. The same must hold when
// the new weights hash to the old entry's key, which only the bit-for-bit
// confirmation catches.
func TestForwardMemoFilterMutatedInPlace(t *testing.T) {
	in, flt := convA.filled(3).problem(tensor.CHWN, tensor.CRSK)
	for step := 0; step < 3; step++ {
		forwardFused(t, in, flt)
		if !memoized(flt, fusedOpt) {
			t.Fatalf("step %d: the fused transform was not memoized", step)
		}
		old := clone(flt)
		flt.FilterSet(5, 3, 1, 1, flt.FilterAt(5, 3, 1, 1)+1)
		if memoized(flt, fusedOpt) {
			t.Fatalf("step %d: the memo confirms a filter mutated in place", step)
		}
		if step == 1 {
			// Plant a collision: the old weights' transform under the
			// new weights' key.
			f, err := winograd.TransformFilter(old, fusedOpt)
			if err != nil {
				t.Fatal(err)
			}
			filterTransforms.put(keyOf(flt, fusedOpt), &filterEntry{bits: bitsOf(old.Data), f: f, size: len(old.Data)})
		}
	}

	for step := 0; step < 2; step++ {
		got, err := Forward(in, flt, tune.Choice{Algo: tune.AlgoNonfused})
		if err != nil {
			t.Fatal(err)
		}
		want, err := conv.Direct(in, flt, conv.Params{Pad: 1})
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.MaxRelDiff(want, got.ToLayout(want.Layout)); d > 1e-3 {
			t.Fatalf("step %d: non-fused differs from direct by %g", step, d)
		}
		if !memoized(flt, nonFusedOpt) {
			t.Fatalf("step %d: the non-fused transform was not memoized", step)
		}
		flt.FilterSet(5, 3, 1, 1, flt.FilterAt(5, 3, 1, 1)+1)
	}
}

// TestForwardMemoSignedZeroAndNaN: filters that differ only in the sign
// of a zero weight, or only in a NaN weight's payload, are different
// filters. A ±0 weight cannot show in the outputs (every accumulator
// starts at +0), so the memo must hold both; a NaN payload does reach
// the outputs, so each filter must reproduce its own oracle bits.
func TestForwardMemoSignedZeroAndNaN(t *testing.T) {
	in, pos := convB.filled(2).problem(tensor.CHWN, tensor.CRSK)
	pos.FilterSet(7, 2, 0, 1, 0)
	neg := clone(pos)
	neg.FilterSet(7, 2, 0, 1, float32(math.Copysign(0, -1)))
	forwardFused(t, in, pos)
	forwardFused(t, in, neg)
	if !memoized(pos, fusedOpt) || !memoized(neg, fusedOpt) {
		t.Fatal("the memo does not hold both the +0 and the -0 filter")
	}

	nan1 := clone(pos)
	nan1.FilterSet(7, 2, 0, 1, math.Float32frombits(0x7fc00001))
	nan2 := clone(pos)
	nan2.FilterSet(7, 2, 0, 1, math.Float32frombits(0x7fc00002))
	want1 := forwardFused(t, in, nan1)
	want2 := forwardFused(t, in, nan2)
	forwardFused(t, in, nan1)
	same := true
	for i := range want1.Data {
		same = same && math.Float32bits(want1.Data[i]) == math.Float32bits(want2.Data[i])
	}
	if same {
		t.Fatal("the two NaN payloads give the oracle the same bits: the probe cannot see a stale transform")
	}
}

// TestForwardMemoBeyondBound runs more distinct filters than the memo
// holds: it stays within filterMemoFloats, evicts its oldest entries,
// and an evicted filter is transformed again, correctly.
func TestForwardMemoBeyondBound(t *testing.T) {
	fc := fusedCase{name: "c64k64_2x2", C: 64, K: 64, N: 32, H: 2, W: 2}.filled(1)
	in, base := fc.problem(tensor.CHWN, tensor.CRSK)
	size := len(base.Data) + winograd.F2x2.TileArea()*fc.C*fc.K
	n := filterMemoFloats/size + 2
	flts := make([]*tensor.Tensor, n)
	for i := range flts {
		flts[i] = clone(base)
		flts[i].FilterSet(0, 0, 0, 0, float32(i))
		if _, err := Forward(in, flts[i], tune.Choice{Algo: tune.AlgoFused}); err != nil {
			t.Fatal(err)
		}
	}
	filterTransforms.mu.Lock()
	floats, entries := filterTransforms.floats, len(filterTransforms.m)
	filterTransforms.mu.Unlock()
	if floats > filterMemoFloats || entries > filterMemoFloats/size {
		t.Fatalf("memo holds %d floats in %d entries, bound %d floats", floats, entries, filterMemoFloats)
	}
	if memoized(flts[0], fusedOpt) || !memoized(flts[n-1], fusedOpt) {
		t.Fatal("the memo did not evict its oldest entry first")
	}
	forwardFused(t, in, flts[0])
	forwardFused(t, in, flts[n-1])
}

// TestForwardMemoConcurrent serves the demo model's two layers from
// several goroutines at once, some of them with a filter the memo has
// not seen, and requires every output to carry its oracle's bits.
func TestForwardMemoConcurrent(t *testing.T) {
	type layer struct {
		in, flt *tensor.Tensor
		want    *tensor.Tensor
	}
	var layers []layer
	for i, fc := range []fusedCase{convA.filled(1), convB.filled(1), convA.filled(1)} {
		in, flt := fc.problem(tensor.CHWN, tensor.CRSK)
		if i == 2 {
			flt.FilterSet(0, 0, 0, 0, 2) // a third filter, first seen concurrently
		}
		want, err := WinogradConv(in, flt)
		if err != nil {
			t.Fatal(err)
		}
		layers = append(layers, layer{in, flt, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				l := layers[(g+i)%len(layers)]
				got, err := Forward(l.in, l.flt, tune.Choice{Algo: tune.AlgoFused})
				if err != nil {
					t.Error(err)
					return
				}
				for j := range l.want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(l.want.Data[j]) {
						t.Errorf("goroutine %d, layer %d: element %d is %v, want %v", g, (g+i)%len(layers), j, got.Data[j], l.want.Data[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
