package gpu

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sass"
)

// SmemOracle is the dynamic complement of the static shared-memory
// verifier (internal/sasscheck.VerifyKernel): attached to a Sim it logs every
// shared-memory access one launch performs — (block, warp, lane, pc,
// barrier phase, byte range) — and flags the concrete hazards the
// verifier proves absent on all paths: write-write or read-write
// overlap between warps inside one barrier interval, same-instruction
// multi-lane overwrites, out-of-bounds or misaligned accesses, and
// barriers executed under divergent guards.
//
// The oracle follows the Sim.Prof discipline: with Sim.Oracle nil every
// hook is one pointer compare and the simulated results never change.
// The oracle's finding kinds are the verifier's rule IDs, so a
// differential test can assert dynamic findings are a subset of static
// reports: anything the oracle observes on some launch, the verifier
// must report on the whole program.
//
// One oracle may be shared by the workers of a Sharded launch; the
// record methods lock. Findings are computed on demand from the log.
type SmemOracle struct {
	mu       sync.Mutex
	records  []OracleRecord
	findings []OracleFinding // bounds/divergence findings, recorded at the access
}

// OracleRecord is one lane's shared-memory access.
type OracleRecord struct {
	Block int // block index within the grid
	Warp  int // warp index within the block
	Lane  int
	PC    int // instruction index
	Phase int // barrier-interval number within the block (0 before the first BAR)
	Addr  uint32
	Width int // bytes
	Write bool
}

// OracleFinding is one concrete hazard observed during a launch. Kind
// is the matching sasscheck rule ID: "smem-race", "smem-bounds", or
// "bar-divergent".
type OracleFinding struct {
	Kind    string
	PC      int
	OtherPC int // the second instruction of a race; -1 otherwise
	Block   int
	Msg     string
}

func (f OracleFinding) String() string {
	return fmt.Sprintf("pc %d: %s: %s", f.PC, f.Kind, f.Msg)
}

// Records returns a copy of the access log in (block, phase, pc, warp,
// lane) order; repeated executions of one lane at one pc within a phase
// keep their execution order.
func (o *SmemOracle) Records() []OracleRecord {
	o.mu.Lock()
	rs := append([]OracleRecord(nil), o.records...)
	o.mu.Unlock()
	sort.SliceStable(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Warp != b.Warp {
			return a.Warp < b.Warp
		}
		return a.Lane < b.Lane
	})
	return rs
}

// recordAccess logs one warp's shared-memory access, called from the
// issue path before the data moves (so out-of-bounds accesses are
// logged too).
func (o *SmemOracle) recordAccess(w *warp, in *sass.Inst, req *memRequest) {
	pc := w.pc - 1
	width := int(in.Width)
	write := !req.load
	o.mu.Lock()
	for l := 0; l < warpSize; l++ {
		if !req.active[l] {
			continue
		}
		o.records = append(o.records, OracleRecord{
			Block: w.block.blockIdx,
			Warp:  w.idx,
			Lane:  l,
			PC:    pc,
			Phase: w.smemPhase,
			Addr:  req.addrs[l],
			Width: width,
			Write: write,
		})
	}
	o.mu.Unlock()
}

// noteBounds records a concrete out-of-bounds or misaligned access the
// data mover rejected.
func (o *SmemOracle) noteBounds(w *warp, pc int, msg string) {
	o.mu.Lock()
	o.findings = append(o.findings, OracleFinding{
		Kind: "smem-bounds", PC: pc, OtherPC: -1, Block: w.block.blockIdx, Msg: msg,
	})
	o.mu.Unlock()
}

// noteBarrier advances the warp's barrier-interval counter and checks
// the BAR's guard for divergence. The machine model synchronizes
// regardless of the guard (exec sets res.barrier unconditionally), but
// on real hardware predicated-off lanes skip the barrier — exactly the
// hazard the static bar-divergent rule rejects.
func (o *SmemOracle) noteBarrier(w *warp, in *sass.Inst) {
	pc := w.pc - 1
	if in.Pred != sass.PT {
		first := w.laneActive(in, 0)
		for l := 1; l < warpSize; l++ {
			if w.laneActive(in, l) != first {
				o.mu.Lock()
				o.findings = append(o.findings, OracleFinding{
					Kind: "bar-divergent", PC: pc, OtherPC: -1, Block: w.block.blockIdx,
					Msg: fmt.Sprintf("barrier guard diverges within warp %d of block %d (lane 0 %v, lane %d %v)",
						w.idx, w.block.blockIdx, first, l, !first),
				})
				o.mu.Unlock()
				break
			}
		}
	}
	w.smemPhase++
}

// Findings computes the hazards of the logged launch: the recorded
// bounds/divergence findings plus the races found by sweeping each
// (block, phase) group of the access log, under the same execution
// order the static checker assumes — lanes of one warp are lockstep and
// program-ordered, warps are unordered between barriers.
func (o *SmemOracle) Findings() []OracleFinding {
	o.mu.Lock()
	out := append([]OracleFinding(nil), o.findings...)
	recs := append([]OracleRecord(nil), o.records...)
	o.mu.Unlock()

	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Block != b.Block {
			return a.Block < b.Block
		}
		if a.Phase != b.Phase {
			return a.Phase < b.Phase
		}
		return a.Addr < b.Addr
	})
	for lo := 0; lo < len(recs); {
		hi := lo
		for hi < len(recs) && recs[hi].Block == recs[lo].Block && recs[hi].Phase == recs[lo].Phase {
			hi++
		}
		out = append(out, sweepGroup(recs[lo:hi])...)
		lo = hi
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// oracleRaces mirrors sasscheck's race predicate: overlap is a race
// when at least one side writes and either the warps differ (unordered
// scheduling) or two lanes of one instruction both write (unspecified
// winner). Same-warp different-pc pairs are program-ordered.
func oracleRaces(a, b *OracleRecord) bool {
	if !a.Write && !b.Write {
		return false
	}
	if a.Warp != b.Warp {
		return true
	}
	return a.PC == b.PC && a.Lane != b.Lane && a.Write && b.Write
}

// sweepGroup finds overlapping byte ranges within one (block, phase)
// group, already sorted by address. One finding is emitted per
// conflicting instruction pair.
func sweepGroup(recs []OracleRecord) []OracleFinding {
	var out []OracleFinding
	seen := map[[2]int]bool{}
	var active []int
	for i := range recs {
		r := &recs[i]
		kept := active[:0]
		for _, j := range active {
			if recs[j].Addr+uint32(recs[j].Width) > r.Addr {
				kept = append(kept, j)
			}
		}
		active = kept
		for _, j := range active {
			o := &recs[j]
			if !oracleRaces(r, o) {
				continue
			}
			pc, other := r.PC, o.PC
			a, b := r, o
			if other > pc {
				pc, other = other, pc
				a, b = o, r
			}
			key := [2]int{pc, other}
			if seen[key] {
				continue
			}
			seen[key] = true
			kind := "read-write"
			if r.Write && o.Write {
				kind = "write-write"
			}
			out = append(out, OracleFinding{
				Kind: "smem-race", PC: pc, OtherPC: other, Block: r.Block,
				Msg: fmt.Sprintf("%s overlap with pc %d in barrier interval %d of block %d: warp %d lane %d bytes 0x%x+%d vs warp %d lane %d bytes 0x%x+%d",
					kind, other, r.Phase, r.Block, a.Warp, a.Lane, a.Addr, a.Width, b.Warp, b.Lane, b.Addr, b.Width),
			})
		}
		active = append(active, i)
	}
	return out
}
