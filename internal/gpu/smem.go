package gpu

import "repro/internal/sass"

// Shared memory has 32 banks of 4 bytes. Wide accesses are processed in
// phases that each move at most 128 bytes: a 128-bit access is serviced in
// four phases of 8 lanes, a 64-bit access in two phases of 16 lanes, and a
// 32-bit access in a single 32-lane phase. Within a phase, lanes that
// address the same width-sized word are merged (broadcast); the phase then
// takes as many cycles as the most-loaded bank has distinct words.
//
// This is the model under which the paper's Figure 3 arrangement is
// conflict-free while seemingly-equivalent arrangements are not: merging
// happens per accessed word, not per byte of overlap, so two lanes hitting
// different words in one bank serialize even when a naive reading of the
// programming guide suggests a broadcast.
const smemBanks = 32

// smemService returns the total service cycles for a shared-memory warp
// access and how many of those cycles are bank-conflict overhead.
func smemService(req *memRequest) (cycles, conflictCycles int) {
	lanesPerPhase := warpSize
	switch req.width {
	case sass.W64:
		lanesPerPhase = 16
	case sass.W128:
		lanesPerPhase = 8
	}
	wordsPerAccess := req.width.Regs()
	for start := 0; start < warpSize; start += lanesPerPhase {
		// Distinct word-aligned access addresses in this phase. At most
		// one per lane, so a fixed array avoids allocating in the issue
		// path.
		var accessBuf [warpSize]uint32
		accesses := accessBuf[:0]
		anyActive := false
		for l := start; l < start+lanesPerPhase; l++ {
			if !req.active[l] {
				continue
			}
			anyActive = true
			addr := req.addrs[l] &^ uint32(req.width-1) // align to access width
			dup := false
			for _, a := range accesses {
				if a == addr {
					dup = true
					break
				}
			}
			if !dup {
				accesses = append(accesses, addr)
			}
		}
		if !anyActive {
			continue
		}
		// Count distinct words per bank.
		var perBank [smemBanks]int
		for _, a := range accesses {
			firstWord := a / 4
			for j := 0; j < wordsPerAccess; j++ {
				perBank[(firstWord+uint32(j))%smemBanks]++
			}
		}
		phase := 1
		for _, n := range perBank {
			if n > phase {
				phase = n
			}
		}
		cycles += phase
		conflictCycles += phase - 1
	}
	if cycles == 0 {
		cycles = 1 // fully predicated-off access still occupies the pipe briefly
	}
	return cycles, conflictCycles
}

// maxStampWords bounds the dedup stamp table: 64K words = 256KB of
// shared memory, far above any real SM. Accesses past it (possible only
// on the way to an out-of-bounds error in moveShared) fall back to a
// linear dedup so the counted cycles still match smemService exactly.
const maxStampWords = 1 << 16

// smemServiceFast is smemService with the per-phase duplicate scan
// replaced by a generation-stamped word table carried on the SM
// instance. With the default device parameters it counts exactly the same
// cycles and conflicts (the equivalence is property-tested against
// smemService); the bookkeeping is cheaper — O(lanes) per phase instead
// of O(lanes²), the per-bank maximum tracked inline — and the bank count
// and pipe width come from the instance's Device, so narrower machines
// split accesses into more phases and fold more words per bank. Zero
// fields (the package-level default) price like smemService.
func (sm *smSim) smemServiceFast(req *memRequest) (cycles, conflictCycles int) {
	bpc := int(sm.smemBPC)
	if bpc == 0 {
		bpc = 128
	}
	banks := sm.smemBanksN
	if banks == 0 {
		banks = smemBanks
	}
	bankMask := banks - 1
	// A phase moves at most bpc bytes: bpc/width lanes of a width-byte
	// access share one phase (clamped to the warp).
	lanesPerPhase := bpc / (4 * req.width.Regs())
	if lanesPerPhase < 1 {
		lanesPerPhase = 1
	} else if lanesPerPhase > warpSize {
		lanesPerPhase = warpSize
	}
	words := uint32(req.width.Regs())
	alignMask := ^uint32(req.width - 1)
	for start := 0; start < warpSize; start += lanesPerPhase {
		sm.smemGen++
		if sm.smemGen == 0 {
			// Generation counter wrapped: every stamp is potentially
			// stale, so clear them once and restart.
			clear(sm.smemStamp)
			sm.smemGen = 1
		}
		gen := sm.smemGen
		var perBank [smemBanks]int32
		var overBuf [warpSize]uint32
		over := overBuf[:0]
		phase := int32(0)
		anyActive := false
		for l := start; l < start+lanesPerPhase; l++ {
			if !req.active[l] {
				continue
			}
			anyActive = true
			word := (req.addrs[l] & alignMask) / 4
			if int(word) < len(sm.smemStamp) {
				if sm.smemStamp[word] == gen {
					continue
				}
				sm.smemStamp[word] = gen
			} else if int(word) < maxStampWords {
				sm.growStamp(int(word))
				sm.smemStamp[word] = gen
			} else {
				dup := false
				for _, a := range over {
					if a == word {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				over = append(over, word)
			}
			for j := uint32(0); j < words; j++ {
				b := (word + j) & bankMask
				perBank[b]++
				if perBank[b] > phase {
					phase = perBank[b]
				}
			}
		}
		if !anyActive {
			continue
		}
		cycles += int(phase)
		conflictCycles += int(phase - 1)
	}
	if cycles == 0 {
		cycles = 1 // fully predicated-off access still occupies the pipe briefly
	}
	return cycles, conflictCycles
}

// growStamp widens the stamp table to cover word index w (stays within
// maxStampWords; new entries are zero, which no live generation uses
// before the wrap-clear above).
func (sm *smSim) growStamp(w int) {
	want := 2 * len(sm.smemStamp)
	if want <= w {
		want = w + 1
	}
	if want < 1024 {
		want = 1024
	}
	if want > maxStampWords {
		want = maxStampWords
	}
	ns := make([]uint32, want)
	copy(ns, sm.smemStamp)
	sm.smemStamp = ns
}
