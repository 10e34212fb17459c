package kernels

import (
	"testing"

	"repro/internal/gpu"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// divMagic applies the magic constants on the host, mirroring the SASS
// sequence.
func divMagic(n, m, s uint32) uint32 {
	if m == 0 {
		return n >> s
	}
	return uint32((uint64(n) * uint64(m)) >> 32 >> s)
}

func TestMagicDivision(t *testing.T) {
	for _, d := range []uint32{1, 2, 3, 4, 5, 6, 7, 12, 14, 28, 56, 100, 112} {
		m, s := magic(d)
		// Exhaustive over the range tile indices actually take
		// (spatial tile index fits in 16 bits).
		for n := uint32(0); n < 1<<16; n++ {
			if divMagic(n, m, s) != n/d {
				t.Fatalf("divMagic(%d, d=%d) = %d, want %d", n, d, divMagic(n, m, s), n/d)
			}
		}
	}
}

func TestFTFMatchesCPUTransform(t *testing.T) {
	const C, K = 16, 64
	flt := tensor.NewFilter(tensor.CRSK, tensor.FilterShape{K: K, C: C, R: 3, S: 3})
	flt.FillRandom(5)

	sim := gpu.NewSim(gpu.RTX2070())
	sim.HazardCheck = true
	fbuf := sim.Alloc(C * 9 * K * 4)
	obuf := sim.Alloc(C * 16 * K * 4)
	sim.WriteF32(fbuf.Addr, flt.Data)

	k, err := GenerateFTF(K)
	if err != nil {
		t.Fatal(err)
	}
	block := FTFBlock(K)
	m, err := sim.Launch(k, gpu.LaunchOpts{
		Grid: K / block, GridY: C, Block: block,
		Params: []uint32{fbuf.Addr, obuf.Addr, uint32(K * 4)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.HazardViolations) != 0 {
		t.Fatalf("hazards: %v", m.HazardViolations)
	}

	got := sim.ReadF32(obuf.Addr, C*16*K)
	for c := 0; c < C; c++ {
		var tile winograd.FilterTile3
		for r := 0; r < 3; r++ {
			for s := 0; s < 3; s++ {
				// probe a few k values per (c) to keep the test fast
				_ = r
				_ = s
			}
		}
		for _, kk := range []int{0, 1, 31, 63} {
			for r := 0; r < 3; r++ {
				for s := 0; s < 3; s++ {
					tile[r*3+s] = flt.FilterAt(kk, c, r, s)
				}
			}
			want := make([]float32, 16)
			winograd.TransformFilterTile(winograd.F2x2, &tile, want)
			for e := 0; e < 16; e++ {
				g := got[(c*16+e)*K+kk]
				if diff := g - want[e]; diff > 1e-5 || diff < -1e-5 {
					t.Fatalf("(c=%d,k=%d,e=%d): got %v want %v", c, kk, e, g, want[e])
				}
			}
		}
	}
}
