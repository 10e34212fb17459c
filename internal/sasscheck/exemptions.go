package sasscheck

import "repro/internal/sass"

// The verifier's exemption surface, enumerated in one place so it can
// only grow deliberately: every entry names the accesses it covers, why
// the finding is a documented trade rather than a bug, and a predicate
// precise enough that an is-still-needed test can prove the exemption
// is load-bearing (stripping it must re-surface the diagnostic). This
// list is the only place in the repository that tolerates a bank
// conflict.
//
// Race, bounds, and divergence findings have no exemptions: the
// generated kernels verify clean outright (the epilogue scatter's
// byte-disjoint writes and barrier-separated read/write rounds need no
// waiver). The only tolerated finding class is the derived bank
// conflict on the epilogue scatter stores (DESIGN.md §5): scattering
// transposed outputs costs 2-way conflicts once per tile and buys
// conflict-free gathers everywhere else.

// Exemption is one tolerated finding class.
type Exemption struct {
	// ID names the exemption in tests and documentation.
	ID string
	// Rule is the diagnostic rule the exemption suppresses.
	Rule string
	// Why documents the trade.
	Why string
	// Match reports whether the instruction is covered.
	Match func(in *sass.Inst) bool
}

// Exemptions returns the verifier's complete exemption list.
func Exemptions() []Exemption {
	return []Exemption{
		{
			ID:   "epilogue-scatter-conflicts",
			Rule: "smem-conflict",
			Why: "the epilogue scatters transposed 2x2 output tiles with predicated 32-bit stores; " +
				"the paper accepts the resulting 2-way conflicts (once per tile) to keep the " +
				"epilogue gathers and every main-loop access conflict-free (DESIGN.md §5)",
			Match: func(in *sass.Inst) bool {
				// The scatter stores are the only predicated 32-bit STS
				// the generator emits.
				return in.Op == sass.OpSTS && in.Width == sass.W32 && in.Pred != sass.PT
			},
		},
	}
}

// exempt reports whether a derived-conflict finding on this instruction
// is covered by the exemption list.
func exempt(in *sass.Inst) bool {
	for _, e := range Exemptions() {
		if e.Rule == "smem-conflict" && e.Match(in) {
			return true
		}
	}
	return false
}
