// Package kernels generates the SASS source of the paper's fused
// F(2x2,3x3) Winograd convolution kernels, assembles them with the
// turingas assembler, and runs them on the gpu simulator. The generator
// plays the role of the paper's inline-Python TuringAs templates: it emits
// the fully unrolled main loop with explicit control codes, the Figure-3
// fragment addressing, the Figure-4 register allocation with .reuse
// scheduling, P2R/R2P-packed zero-padding masks, and the 4-round padded
// output transpose.
//
// One generator produces both the paper's kernel (bk=64) and the
// cuDNN-like baseline (bk=32, yield cleared every 7 float instructions,
// LDG2/STS2 spacing) — the Section 6 scheduling studies are knobs.
package kernels

import (
	"fmt"
	"math/bits"
	"strconv"
)

// Config selects the kernel variant and its SASS-level scheduling knobs.
type Config struct {
	// BK is the filter-dimension cache block size: 64 for the paper's
	// kernel, 32 for the cuDNN-like baseline (Section 3.3).
	BK int
	// YieldEvery clears the yield flag every N float instructions in the
	// main loop; 0 is the paper's "Natural" strategy (never clear),
	// 7 mimics cuDNN, 8 mimics NVCC (Section 6.1).
	YieldEvery int
	// LDGGap is the number of FFMAs between consecutive LDG instructions
	// (Section 6.2: cuDNN uses 2, the paper uses 8).
	LDGGap int
	// STSGap is the number of float instructions between consecutive STS
	// instructions in the store phase (Section 6.2: 2 vs 6).
	STSGap int
	// UseP2R packs the 16 zero-padding predicates into one register and
	// unpacks them with R2P inside the loop (Section 3.5). When false,
	// the masks are recomputed with ISETPs every iteration — the
	// behaviour P2R eliminates.
	UseP2R bool
	// DeclaredSmem overrides the shared-memory declaration (cuDNN's
	// kernel reserves 48 KB regardless of its layout; occupancy follows
	// the declaration). 0 uses the layout's actual requirement.
	DeclaredSmem int
}

// Ours returns the paper's kernel configuration (Table 7 left column).
func Ours() Config {
	return Config{BK: 64, YieldEvery: 0, LDGGap: 8, STSGap: 6, UseP2R: true}
}

// CuDNNLike returns the baseline configuration modelled on cuDNN 7.6.1's
// fused Winograd kernel (Table 7 right column and Section 6 observations:
// bk=32, yield cleared every 7 float instructions, LDG2, STS2).
func CuDNNLike() Config {
	return Config{BK: 32, YieldEvery: 7, LDGGap: 2, STSGap: 2, UseP2R: true, DeclaredSmem: 48 * 1024}
}

// Key renders the configuration as a canonical cache key. Defaults are
// applied first, so two spellings of the same effective configuration
// (e.g. LDGGap 0 and LDGGap 8, or a bk=64 DeclaredSmem at or below the
// layout's actual 48 KB) share one key, while any two configs that
// generate different kernels never collide: every knob — BK, YieldEvery,
// LDGGap, STSGap, UseP2R, DeclaredSmem — appears as its own
// unambiguously delimited field.
func (c Config) Key() string {
	var buf [64]byte
	return string(c.appendKey(buf[:0]))
}

// appendKey appends Key's spelling,
// "bk%d,yield%d,ldg%d,sts%d,p2r%t,smem%d", to b.
func (c Config) appendKey(b []byte) []byte {
	c = c.withDefaults()
	b = strconv.AppendInt(append(b, "bk"...), int64(c.BK), 10)
	b = strconv.AppendInt(append(b, ",yield"...), int64(c.YieldEvery), 10)
	b = strconv.AppendInt(append(b, ",ldg"...), int64(c.LDGGap), 10)
	b = strconv.AppendInt(append(b, ",sts"...), int64(c.STSGap), 10)
	b = strconv.AppendBool(append(b, ",p2r"...), c.UseP2R)
	return strconv.AppendInt(append(b, ",smem"...), int64(c.DeclaredSmem), 10)
}

// Canonical returns the configuration with defaults applied and
// equivalent spellings collapsed — the representative its Key()
// describes. Callers that store or compare configurations (the tuner's
// cache, selection tables) should canonicalize first so one kernel has
// one spelling.
func (c Config) Canonical() Config { return c.withDefaults() }

// actualSmemBytes is the shared memory the bk-blocked layout really uses
// (layoutFor's smemActual, duplicated here as plain data so Config
// canonicalization does not depend on constructing a layout).
func actualSmemBytes(bk int) int {
	if bk == 32 {
		return 32 * 1024
	}
	return 48 * 1024
}

// withDefaults maps each knob's zero value to the paper configuration it
// denotes and canonicalizes spellings that generate the identical kernel
// onto one representative:
//
//   - BK, LDGGap, STSGap: zero means the paper default (64 / 8 / 6).
//   - YieldEvery is NOT defaulted: its zero value is itself meaningful
//     (the paper's "Natural" strategy — never clear the yield flag), so
//     an unset knob and an explicit 0 are the same configuration by
//     construction and can never collide with a distinct one.
//   - DeclaredSmem at or below the layout's actual requirement is
//     canonicalized to 0 ("use the layout's requirement"): the generator
//     declares max(actual, DeclaredSmem), so such spellings emit
//     byte-identical kernels and must share a cache key.
func (c Config) withDefaults() Config {
	if c.BK == 0 {
		c.BK = 64
	}
	if c.LDGGap == 0 {
		c.LDGGap = 8
	}
	if c.STSGap == 0 {
		c.STSGap = 6
	}
	if (c.BK == 64 || c.BK == 32) && c.DeclaredSmem > 0 && c.DeclaredSmem <= actualSmemBytes(c.BK) {
		c.DeclaredSmem = 0
	}
	return c
}

// MaxDeclaredSmem is the largest shared-memory declaration a kernel may
// carry: the 48 KB static allocation limit the paper's devices enforce
// per block (cuDNN's kernel declares exactly this much).
const MaxDeclaredSmem = 48 * 1024

// Validate rejects nonsensical configurations up front, before any of
// them can fail deep inside generation, lint, or the simulator:
//
//   - BK must be one of the two blockings the generator implements.
//   - YieldEvery must be non-negative and at most 32 (the strategies the
//     emitter's float counter can express within one EWMM step).
//   - LDGGap must be a positive power of two at most 32: the LDG stream
//     is rewoven every loop iteration, so a non-divisor of the 128-FFMA
//     step would drift across step boundaries instead of holding the
//     configured spacing.
//   - STSGap must be in [1, 16]: the store phase has 32 float
//     instructions to weave through, so wider gaps cannot space even two
//     stores and silently degrade to a trailing flush.
//   - DeclaredSmem must be non-negative and at most the 48 KB per-block
//     limit.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.BK != 64 && c.BK != 32 {
		return fmt.Errorf("kernels: BK must be 64 or 32, got %d", c.BK)
	}
	if c.YieldEvery < 0 || c.YieldEvery > 32 {
		return fmt.Errorf("kernels: YieldEvery must be in [0, 32] (0 = Natural), got %d", c.YieldEvery)
	}
	if c.LDGGap < 1 || c.LDGGap > 32 || c.LDGGap&(c.LDGGap-1) != 0 {
		return fmt.Errorf("kernels: LDGGap must be a power of two in [1, 32] (a divisor of the 128-FFMA step), got %d", c.LDGGap)
	}
	if c.STSGap < 1 || c.STSGap > 16 {
		return fmt.Errorf("kernels: STSGap must be in [1, 16], got %d", c.STSGap)
	}
	if c.DeclaredSmem < 0 || c.DeclaredSmem > MaxDeclaredSmem {
		return fmt.Errorf("kernels: DeclaredSmem must be in [0, %d], got %d", MaxDeclaredSmem, c.DeclaredSmem)
	}
	return nil
}

// Footprint returns the per-thread register count and per-block shared
// memory Generate would declare for c — the occupancy inputs — without
// paying for generation. The shared-memory figure honours DeclaredSmem
// the way the generator does (the declaration is the max of the layout's
// actual requirement and the override).
func (c Config) Footprint() (regs, smemBytes int) {
	c = c.withDefaults()
	lay := layoutFor(c.BK)
	smem := lay.smemActual
	if c.DeclaredSmem > smem {
		smem = c.DeclaredSmem
	}
	return lay.regs, smem
}

// Problem is a batched 3x3 convolution shape (stride 1, pad 1 — the
// ResNet configuration the paper evaluates).
type Problem struct {
	C, K, N, H, W int
}

// Validate checks the generator's preconditions (paper Section 8.3: full
// performance requires N a multiple of 32, K a multiple of bk, C a
// multiple of 8). Odd H/W are supported with predicated edge stores —
// F(2x2,3x3) then computes discarded pixels, the effect behind the
// paper's Conv5 (7x7) observations.
func (p Problem) Validate(bk int) error {
	switch {
	case p.N <= 0 || p.N%32 != 0:
		return fmt.Errorf("kernels: N=%d must be a positive multiple of 32", p.N)
	case p.K <= 0 || p.K%bk != 0:
		return fmt.Errorf("kernels: K=%d must be a positive multiple of bk=%d", p.K, bk)
	case p.C <= 0 || p.C%8 != 0:
		return fmt.Errorf("kernels: C=%d must be a positive multiple of 8", p.C)
	case p.H < 2 || p.W < 2:
		return fmt.Errorf("kernels: H=%d, W=%d must be at least 2", p.H, p.W)
	}
	return nil
}

// Key renders the problem shape as a canonical cache key.
func (p Problem) Key() string {
	var buf [64]byte
	return string(p.appendKey(buf[:0]))
}

// appendKey appends Key's spelling, "c%d,k%d,n%d,h%d,w%d", to b.
func (p Problem) appendKey(b []byte) []byte {
	b = strconv.AppendInt(append(b, 'c'), int64(p.C), 10)
	b = strconv.AppendInt(append(b, ",k"...), int64(p.K), 10)
	b = strconv.AppendInt(append(b, ",n"...), int64(p.N), 10)
	b = strconv.AppendInt(append(b, ",h"...), int64(p.H), 10)
	return strconv.AppendInt(append(b, ",w"...), int64(p.W), 10)
}

// TilesH and TilesW are the output-tile grid dimensions (ceiling: the
// bottom/right tiles of an odd image are partial).
func (p Problem) TilesH() int { return (p.H + 1) / 2 }
func (p Problem) TilesW() int { return (p.W + 1) / 2 }

// FLOPs returns the direct-convolution-equivalent floating point
// operations, the basis of the paper's TFLOPS numbers.
func (p Problem) FLOPs() float64 {
	return 2 * float64(p.N) * float64(p.C) * float64(p.H) * float64(p.W) * float64(p.K) * 9
}

// magic computes multiply-shift constants for unsigned division by d:
// q = umulhi(n, M) >> s. With M = ceil(2^32 / d) and s = 0 the result is
// exact whenever n*d < 2^32 — amply true for the tile indices the kernels
// divide (spatial tile index < 2^16, tilesW < 2^16). Powers of two take
// the pure-shift path (M = 0 marker).
func magic(d uint32) (m uint32, s uint32) {
	if d == 0 {
		panic("kernels: division by zero")
	}
	if d&(d-1) == 0 {
		return 0, uint32(bits.TrailingZeros32(d))
	}
	m = uint32(((uint64(1) << 32) + uint64(d) - 1) / uint64(d))
	return m, 0
}
