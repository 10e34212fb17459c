package sasscheck

import (
	"fmt"
	"sort"

	"repro/internal/gpu"
	"repro/internal/sass"
)

// Shared-memory race, bounds, and derived-conflict checking for the
// abstract interpreter: accesses are logged per barrier interval
// (BAR.SYNC-delimited phases) and checked pairwise at each barrier and
// at kernel exit.
//
// The race discipline mirrors the machine model's execution order:
// within one warp, instructions issue in program order and lanes move in
// lockstep, so a read at one pc and a write at another of the same warp
// are ordered and never race. What can race is (a) any write-write or
// read-write byte overlap between different warps inside one barrier
// interval — warp scheduling order is unspecified — and (b) two lanes of
// the same warp writing overlapping bytes in the same instruction, where
// the hardware picks an unspecified winner.

// memAccess logs one LDS/STS and performs the per-access checks
// (bounds, derived bank conflicts, pattern recording).
func (ai *interp) memAccess(s *absState, in *sass.Inst, g absPred, pc int, write bool) {
	addr := s.readReg(in.Rs0)
	if in.Imm != 0 {
		if nv, ok := addStride(addr, constVal(in.Imm), constVal(0)); ok {
			addr = nv
		} else {
			addr = ai.binop(addr, constVal(in.Imm), func(x, y uint32) uint32 { return x + y })
		}
	}
	var active []bool
	switch g.kind {
	case pVec:
		active = g.vec
	case pConst:
		active = nil // all threads
	default:
		// Unknown guard: assume every thread may participate (sound
		// over-approximation for races and bounds).
		active = nil
	}
	switch addr.kind {
	case vTop:
		ai.limit(pc, fmt.Sprintf("%s address cannot be resolved statically", in.Op))
		return
	case vUnk:
		// Uniform-unknown address: bounds are unprovable, and an
		// unpredicated store through it is a same-instruction multi-lane
		// overwrite anyway.
		ai.limit(pc, fmt.Sprintf("%s address depends on launch parameters; bounds and overlap are unprovable", in.Op))
		return
	}
	width := int(in.Width)
	ai.checkBounds(pc, in, addr, active, width)
	if addr.exact() {
		ai.checkConflicts(pc, in, addr, active)
	}
	s.log = append(s.log, intervalAccess{pc: pc, write: write, width: width, addr: addr, active: active})
}

// checkBounds proves rule (b): every active thread's access stays
// inside the declared shared memory and is aligned to its width (the
// machine model rejects both).
func (ai *interp) checkBounds(pc int, in *sass.Inst, addr absVal, active []bool, width int) {
	if addr.kind == vStride {
		ai.limit(pc, fmt.Sprintf("%s address is a widened stride set; bounds are unprovable", in.Op))
		return
	}
	for t := 0; t < ai.threads; t++ {
		if active != nil && !active[t] {
			continue
		}
		a := addr.at(t)
		if a%uint32(width) != 0 {
			ai.diag(Diag{Rule: "smem-bounds", PC: pc, Sev: Error,
				Msg:  fmt.Sprintf("%s address 0x%x (thread %d) is not aligned to the %d-byte access width", in.Op, a, t, width),
				Hint: "fix the address computation; the machine model rejects misaligned shared accesses"})
			return
		}
		if int(a)+width > ai.smemBytes {
			ai.diag(Diag{Rule: "smem-bounds", PC: pc, Sev: Error,
				Msg:  fmt.Sprintf("%s writes 0x%x+%dB past the %d bytes of declared shared memory (thread %d)", in.Op, a, width, ai.smemBytes, t),
				Hint: "raise DeclaredSmem or fix the address computation"})
			return
		}
	}
}

// checkConflicts prices each warp's derived access pattern with the
// simulator's 32-bank phase model (gpu.SmemAccessCost) and reports
// conflicts that the exemption list (exemptions.go) does not cover. It
// is the repository's only static bank-conflict check: every exact
// LDS/STS address of every warp comes through here, and a non-exact
// one has already been reported as absint-limit.
func (ai *interp) checkConflicts(pc int, in *sass.Inst, addr absVal, active []bool) {
	for w := 0; w*32 < ai.threads; w++ {
		var addrs [32]uint32
		var act [32]bool
		any := false
		for l := 0; l < 32; l++ {
			t := w*32 + l
			if t >= ai.threads || (active != nil && !active[t]) {
				continue
			}
			addrs[l] = addr.at(t)
			act[l] = true
			any = true
		}
		if !any {
			continue
		}
		cycles, conflict := gpu.SmemAccessCost(in.Width, &addrs, &act)
		if conflict == 0 {
			continue
		}
		if !ai.opts.NoExemptions && exempt(in) {
			continue
		}
		ai.diag(Diag{Rule: "smem-conflict", PC: pc, Sev: Warn,
			Msg: fmt.Sprintf("derived %s pattern of warp %d: %d conflict cycles on top of the %d-cycle conflict-free service",
				in.Op, w, conflict, cycles-conflict),
			Hint: "pad the leading dimension or swizzle the layout so each phase's lanes hit distinct banks (Figures 3 and 5)"})
		return
	}
}

// byteRange is one thread's byte extent of one logged access.
type byteRange struct {
	lo, hi uint32
	warp   int
	thread int
	pc     int
	write  bool
}

// checkInterval proves rule (a) for the barrier interval that ends at
// barPC: no write-write or read-write overlap between warps, and no
// same-instruction multi-lane overwrite. Exact accesses go through a
// sort-and-sweep over byte ranges; widened stride accesses fall back to
// congruence-based pairwise disjointness.
func (ai *interp) checkInterval(s *absState, barPC int) {
	if len(s.log) == 0 {
		return
	}
	var ranges []byteRange
	var strided []intervalAccess
	for i := range s.log {
		a := &s.log[i]
		if a.addr.kind == vStride {
			strided = append(strided, *a)
			continue
		}
		for t := 0; t < ai.threads; t++ {
			if a.active != nil && !a.active[t] {
				continue
			}
			lo := a.addr.at(t)
			ranges = append(ranges, byteRange{lo: lo, hi: lo + uint32(a.width), warp: t / 32, thread: t, pc: a.pc, write: a.write})
		}
	}
	ai.sweepRanges(s, ranges)
	ai.checkStrided(s, strided, ranges)
}

// races reports whether two overlapping accesses constitute a race
// under the lockstep-warp execution order.
func races(a, b *byteRange) bool {
	if !a.write && !b.write {
		return false
	}
	if a.warp != b.warp {
		return true
	}
	// Same warp: program order serializes different instructions; the
	// only hazard left is two lanes of one store overwriting each other.
	return a.pc == b.pc && a.thread != b.thread && a.write && b.write
}

func (ai *interp) raceDiag(s *absState, a, b *byteRange) {
	pc, other := a.pc, b.pc
	if other > pc {
		pc, other = other, pc
		a, b = b, a
	}
	// One diagnostic per instruction pair: the first overlapping byte
	// range found is representative.
	if ai.seenRace[[2]int{pc, other}] {
		return
	}
	ai.seenRace[[2]int{pc, other}] = true
	kind := "read-write"
	if a.write && b.write {
		kind = "write-write"
	}
	ai.diag(Diag{Rule: "smem-race", PC: pc, Sev: Error,
		Msg: fmt.Sprintf("%s overlap with pc %d in one barrier interval (phase %d): warp %d bytes 0x%x+%d vs warp %d bytes 0x%x+%d",
			kind, other, s.phase, a.warp, a.lo, a.hi-a.lo, b.warp, b.lo, b.hi-b.lo),
		Hint: "separate the accesses with BAR.SYNC or make the layout disjoint"})
}

// sweepRanges finds overlapping byte ranges by sorting on the start
// address: a range only needs checking against earlier ranges that
// reach past its start. Clean kernels have disjoint writes, so the
// write/any sweep stays near-linear; read-read pairs are skipped before
// any pairing by sweeping writes only against everything.
func (ai *interp) sweepRanges(s *absState, ranges []byteRange) {
	if len(ranges) < 2 {
		return
	}
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i].lo != ranges[j].lo {
			return ranges[i].lo < ranges[j].lo
		}
		return ranges[i].hi > ranges[j].hi
	})
	// active holds indices of ranges whose hi extends past the current
	// lo, pruned as the sweep advances.
	var active []int
	for i := range ranges {
		r := &ranges[i]
		kept := active[:0]
		for _, j := range active {
			if ranges[j].hi > r.lo {
				kept = append(kept, j)
			}
		}
		active = kept
		for _, j := range active {
			o := &ranges[j]
			if r.write || o.write {
				if races(r, o) {
					ai.raceDiag(s, r, o)
				}
			}
		}
		active = append(active, i)
	}
}

// checkStrided handles accesses whose address was widened to a stride
// set {base + k*stride}: two accesses are provably disjoint when their
// byte intervals cannot overlap modulo the (gcd of the) strides. The
// modular test leaves k unconstrained, a sound superset of the loop
// iterations the widening observed.
func (ai *interp) checkStrided(s *absState, strided []intervalAccess, exact []byteRange) {
	if len(strided) == 0 {
		return
	}
	const maxStrided = 64
	if len(strided) > maxStrided {
		ai.limit(strided[0].pc, "too many stride-widened shared accesses in one barrier interval to check pairwise")
		strided = strided[:maxStrided]
	}
	expand := func(a *intervalAccess) []byteRange {
		var rs []byteRange
		for t := 0; t < ai.threads; t++ {
			if a.active != nil && !a.active[t] {
				continue
			}
			lo := a.addr.at(t) // stride base for vStride
			rs = append(rs, byteRange{lo: lo, hi: lo + uint32(a.width), warp: t / 32, thread: t, pc: a.pc, write: a.write})
		}
		return rs
	}
	overlapMod := func(a, b *byteRange, m uint32) bool {
		if m == 0 {
			return a.lo < b.hi && b.lo < a.hi
		}
		wa, wb := a.hi-a.lo, b.hi-b.lo
		return (a.lo-b.lo)%m < wb || (b.lo-a.lo)%m < wa
	}
	for i := range strided {
		sa := &strided[i]
		ra := expand(sa)
		// Against every other strided access (including itself: two
		// threads of one widened store can collide).
		for j := i; j < len(strided); j++ {
			sb := &strided[j]
			m := gcd32(sa.addr.stride, sb.addr.stride)
			rb := ra
			if j != i {
				rb = expand(sb)
			}
			for x := range ra {
				for y := range rb {
					if j == i && y <= x {
						continue
					}
					if races(&ra[x], &rb[y]) && overlapMod(&ra[x], &rb[y], m) {
						ai.raceDiag(s, &ra[x], &rb[y])
					}
				}
			}
		}
		// Against the exact accesses of the interval.
		for y := range exact {
			e := &exact[y]
			for x := range ra {
				if races(&ra[x], e) && overlapMod(&ra[x], e, sa.addr.stride) {
					ai.raceDiag(s, &ra[x], e)
				}
			}
		}
	}
}

func gcd32(a, b uint32) uint32 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
