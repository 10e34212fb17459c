// Package tune is the autotuning layer between the kernel generator and
// a usable library. The paper hand-picks one schedule (bk=64, Natural
// yield, LDG8/STS6) and shows in Section 6 that the best knobs depend on
// whether a layer is compute- or DRAM-bound; real stacks resolve this
// with search (cuDNN's algorithm finder). tune searches the
// kernels.Config knob space per problem shape on the simulator: static
// pruning with the roofline and the SASS verifier first, then the
// survivors through the bench job graph, results persisted to a
// versioned JSON cache, and a per-layer chooser (Select) that arbitrates
// the tuned fused kernel against the analytic GEMM and non-fused
// Winograd models the way cudnnGetConvolutionForwardAlgorithm does.
package tune

import (
	"sort"

	"repro/internal/kernels"
)

// Space is the searched knob lattice. Every combination is expanded,
// canonicalized, validated, and deduplicated by Enumerate.
type Space struct {
	bk           []int
	yieldEvery   []int
	ldgGap       []int
	stsGap       []int
	useP2R       []bool
	declaredSmem []int
}

// DefaultSpace covers the paper's Section 6 study points on every knob:
// both cache blockings, the three yield strategies, the Figure 8/9
// LDG/STS spacings, P2R on/off, and cuDNN's full-48 KB shared-memory
// declaration next to the layout's own.
func DefaultSpace() Space {
	return Space{
		bk:           []int{64, 32},
		yieldEvery:   []int{0, 7, 8},
		ldgGap:       []int{2, 4, 8},
		stsGap:       []int{2, 4, 6},
		useP2R:       []bool{true, false},
		declaredSmem: []int{0, 48 * 1024},
	}
}

// points counts the knob combinations, which bounds how many
// candidates Enumerate returns.
func (s Space) points() int {
	return len(s.bk) * len(s.yieldEvery) * len(s.ldgGap) * len(s.stsGap) * len(s.useP2R) * len(s.declaredSmem)
}

// Enumerate expands the space into canonical, valid, deduplicated
// configurations, sorted by cache key — a deterministic candidate list
// whatever order the dimensions were spelled in. Spellings that
// canonicalize to one kernel (a bk=64 DeclaredSmem at the layout's own
// 48 KB) collapse to a single candidate; invalid combinations are
// dropped here rather than failing deep in generation.
func (s Space) Enumerate() []kernels.Config {
	byKey := map[string]kernels.Config{}
	for _, bk := range s.bk {
		for _, yield := range s.yieldEvery {
			for _, ldg := range s.ldgGap {
				for _, sts := range s.stsGap {
					for _, p2r := range s.useP2R {
						for _, smem := range s.declaredSmem {
							c := kernels.Config{BK: bk, YieldEvery: yield, LDGGap: ldg,
								STSGap: sts, UseP2R: p2r, DeclaredSmem: smem}.Canonical()
							if c.Validate() != nil {
								continue
							}
							byKey[c.Key()] = c
						}
					}
				}
			}
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]kernels.Config, len(keys))
	for i, k := range keys {
		out[i] = byKey[k]
	}
	return out
}
