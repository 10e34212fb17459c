package cudart

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/winograd"
)

// WinogradConv runs the paper's Algorithm 1 thread-for-thread on the
// cudart execution model with the exact layouts of the SASS kernel:
// bk=64/bn=32/bc=8 blocking, CHWN input, (16, bc, bn) and (16, bc, bk)
// shared tile buffers, the Figure-3 lane arrangement for fragment loads,
// per-thread 2x(8x8) accumulators, and a padded shared transpose buffer
// for the 4-round output transform. It is the CUDA-C-level twin of
// internal/kernels' generated SASS, validated against the same reference.
// Forward serves the fused algorithm from internal/winograd's blocked
// CPU Algorithm 1 instead; this model is its bit-for-bit test oracle.
//
// in must be CHWN, flt CRSK; constraints follow the kernel generator
// (N%32==0, K%64==0, C%8==0). Output is KHWN; pad is fixed at 1.
func WinogradConv(in, flt *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Layout != tensor.CHWN {
		return nil, fmt.Errorf("cudart: input must be CHWN")
	}
	if flt.Layout != tensor.CRSK {
		return nil, fmt.Errorf("cudart: filter must be CRSK")
	}
	is := in.ImageShape()
	fs := flt.FilterShapeOf()
	if is.C != fs.C {
		return nil, fmt.Errorf("cudart: channel mismatch")
	}
	if err := checkFusedShape(is, fs); err != nil {
		return nil, err
	}
	C, K, N, H, W := is.C, fs.K, is.N, is.H, is.W

	// Filter transform (the separate FX kernel), element-major (e, c, k).
	fltHat := winograd.FilterTransformAll(flt, winograd.F2x2)

	tilesH := (H + 1) / 2
	tilesW := (W + 1) / 2
	out := tensor.New(tensor.KHWN, K, H, W, N)

	const (
		smemIn   = 0           // (16, 8, 32) floats
		smemFilt = 16 * 8 * 32 // (16, 8, 64) floats
		smemOT   = 0           // reused: (16, 16, 33) floats
		otStride = 33
	)
	sharedFloats := 16*8*32 + 16*8*64

	kernel := func(t *TCtx) {
		sm := t.Shared()
		tid := t.Tid
		lane := tid & 31
		warp := tid >> 5
		nChunk, spatial, kIdx := t.Ctaid.X, t.Ctaid.Y, t.Ctaid.Z
		th, tw := spatial/tilesW, spatial%tilesW
		nb := nChunk * 32
		k0 := kIdx * 64

		// Figure-3 lane arrangement: this thread's filter columns start
		// at fo1 and fo1+32, its input rows at io1 and io1+16.
		fo1 := ((lane & 15) >> 1) * 4
		io1 := (lane&1)*4 + (lane>>4)*8
		e0 := 2 * warp // the two tile elements this warp owns

		var acc [2][64]float32 // [position][col*8+row]
		raw := make([]float32, 16)
		hat := make([]float32, 16)

		y0 := 2*th - 1
		x0 := 2*tw - 1
		ci := warp // channel this thread loads (tid>>5)
		ni := lane // tile-within-block this thread loads (tid&31)

		for c0 := 0; c0 < C; c0 += 8 {
			// Load + transform one input tile (implicit zero padding).
			for r := 0; r < 4; r++ {
				for s := 0; s < 4; s++ {
					y, x := y0+r, x0+s
					var v float32
					if y >= 0 && y < H && x >= 0 && x < W {
						v = in.At(c0+ci, y, x, nb+ni)
					}
					raw[r*4+s] = v
				}
			}
			winograd.TransformInputTile(winograd.F2x2, raw, hat)
			for e := 0; e < 16; e++ {
				sm[smemIn+(e*8+ci)*32+ni] = hat[e]
			}
			// Stage the transformed filter: thread t moves floats
			// tid*... using the same flat mapping as the SASS kernel.
			for i := 0; i < 8; i++ {
				f4 := i*256 + tid
				e := f4 / 128
				rem := f4 % 128
				cf := rem / 16
				kj := (rem % 16) * 4
				for j := 0; j < 4; j++ {
					sm[smemFilt+(e*8+cf)*64+kj+j] = fltHat[e*C*K+(c0+cf)*K+k0+kj+j]
				}
			}
			t.SyncThreads()

			// EWMM: two 8x8x8 GEMMs per thread (Figure 3 fragments).
			for step := 0; step < 8; step++ {
				for p := 0; p < 2; p++ {
					e := e0 + p
					fBase := smemFilt + (e*8+step)*64
					iBase := smemIn + (e*8+step)*32
					var fFrag, iFrag [8]float32
					for j := 0; j < 4; j++ {
						fFrag[j] = sm[fBase+fo1+j]
						fFrag[4+j] = sm[fBase+fo1+32+j]
						iFrag[j] = sm[iBase+io1+j]
						iFrag[4+j] = sm[iBase+io1+16+j]
					}
					for col := 0; col < 8; col++ {
						for row := 0; row < 8; row++ {
							acc[p][col*8+row] += float32(iFrag[row] * fFrag[col]) // no FMA: see winograd's ewmm
						}
					}
				}
			}
			t.SyncThreads()
		}

		// Output transform: 4 rounds through the padded transpose buffer.
		pre := make([]float32, 16)
		post := make([]float32, 4)
		for r := 0; r < 4; r++ {
			t.SyncThreads()
			colOff := (r / 2) * 4
			activeLow := r%2 == 0
			if ((lane & 15) < 8) == activeLow {
				kk0 := fo1 & 15
				for p := 0; p < 2; p++ {
					for j := 0; j < 4; j++ {
						for jj := 0; jj < 8; jj++ {
							nn := io1 + jj
							if jj >= 4 {
								nn = io1 + 16 + (jj - 4)
							}
							sm[smemOT+((e0+p)*16+kk0+j)*otStride+nn] = acc[p][(colOff+j)*8+jj]
						}
					}
				}
			}
			t.SyncThreads()
			for tile := 0; tile < 2; tile++ {
				kk := warp + tile*8
				nn := lane
				for e := 0; e < 16; e++ {
					pre[e] = sm[smemOT+(e*16+kk)*otStride+nn]
				}
				winograd.TransformOutputTile(winograd.F2x2, pre, post)
				kGlob := k0 + r*16 + kk
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						oy, ox := 2*th+dy, 2*tw+dx
						if oy < H && ox < W {
							out.Set(kGlob, oy, ox, nb+nn, post[dy*2+dx])
						}
					}
				}
			}
		}
	}

	err := Launch(LaunchConfig{
		Grid:         Dim3{X: N / 32, Y: tilesH * tilesW, Z: K / 64},
		BlockThreads: 256,
		SharedFloats: sharedFloats,
	}, kernel)
	if err != nil {
		return nil, err
	}
	return out, nil
}
