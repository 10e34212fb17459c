package gpu

import (
	"sort"

	"repro/internal/sass"
)

// This file is the simulator's profiling layer: an opt-in recorder hooked
// into the issue loop that attributes every resident warp-cycle to a
// reason — issued, control-code stall, dependency-barrier wait, MIO queue
// full, MSHR exhaustion, pipe busy, not selected, or blocked at BAR.SYNC
// — per static instruction and per warp, plus issue-slot utilization and
// in-flight-LDG occupancy. It is the simulator's analogue of the nvprof
// stall breakdowns the paper's methodology is built on.
//
// Cost contract: with Sim.Prof == nil every hook is a single pointer
// compare on an already-loaded struct — no allocation, no work — so the
// zero-alloc fast path of the issue loop is preserved (the perf harness
// gates this against BENCH_sim.json). With a profiler attached the
// simulator classifies every resident warp on every visited cycle with
// the scheduler's own rule (stallReason), which costs real time but never
// changes simulation results: the only state the classifier touches is
// mioSlotFree's pruning of queue entries that have already expired, so
// cycle counts and outputs are bit-identical with profiling on or off.

// StallReason classifies what a resident warp did with one cycle.
type StallReason uint8

const (
	// StallNone is not a stall: the warp issued an instruction this
	// cycle. In per-warp and per-instruction breakdowns the issue cycles
	// are counted separately (Issues); in Metrics.WarpCycles and
	// slot-level breakdowns index StallNone holds the issued cycles (or,
	// for LaunchProfile.SlotStalls, slot-cycles with no resident warp).
	StallNone StallReason = iota
	// StallCtrl: the warp's next issue time has not arrived — the
	// control-code stall count of its previous instruction, the one-cycle
	// warp-switch penalty, or a post-barrier release delay.
	StallCtrl
	// StallBarDep: the next instruction's wait mask names a dependency
	// barrier with outstanding producers (scoreboard wait).
	StallBarDep
	// StallMIOFull: the next instruction is a memory operation and the
	// shared MIO dispatch queue is full.
	StallMIOFull
	// StallMSHRFull: the next instruction is a global load and all MSHRs
	// are held by loads still in flight.
	StallMSHRFull
	// StallPipe: the target FP/ALU pipe is still busy with the previous
	// warp operation (issue-rate limit).
	StallPipe
	// StallNotSelected: the warp was fully eligible but the scheduler
	// issued another warp (or was consumed by a switch penalty).
	StallNotSelected
	// StallBarSync: the warp is parked at BAR.SYNC waiting for the rest
	// of its block.
	StallBarSync

	// NumStallReasons sizes per-reason accumulator arrays.
	NumStallReasons
)

var stallNames = [NumStallReasons]string{
	"issued", "ctrl-stall", "dep-barrier", "mio-full", "mshr-full",
	"pipe-busy", "not-selected", "bar-sync",
}

func (r StallReason) String() string {
	if int(r) < len(stallNames) {
		return stallNames[r]
	}
	return "unknown"
}

// slotPriority ranks per-warp reasons when attributing an idle issue
// slot: the slot is charged to the most specific machine bottleneck any
// of its warps is blocked on (resource exhaustion over latency waits).
var slotPriority = [NumStallReasons]int{
	StallNone:        0,
	StallNotSelected: 1,
	StallBarSync:     2,
	StallCtrl:        3,
	StallPipe:        4,
	StallBarDep:      5,
	StallMIOFull:     6,
	StallMSHRFull:    7,
}

// InstProf aggregates profile counters for one static instruction (the
// pc is the index into LaunchProfile.PerInst and Insts).
type InstProf struct {
	// Issues counts warp-level issues of this instruction.
	Issues int64
	// Stalls[r] is the number of warp-cycles spent stalled for reason r
	// while this instruction was the warp's next to issue.
	Stalls [NumStallReasons]int64
}

// StallTotal sums the stall cycles over all reasons.
func (ip *InstProf) StallTotal() int64 {
	var t int64
	for r := StallCtrl; r < NumStallReasons; r++ {
		t += ip.Stalls[r]
	}
	return t
}

// TopReason returns the dominant stall reason and its cycle count
// (StallNone when the instruction never stalled).
func (ip *InstProf) TopReason() (StallReason, int64) {
	best, bestC := StallNone, int64(0)
	for r := StallCtrl; r < NumStallReasons; r++ {
		if ip.Stalls[r] > bestC {
			best, bestC = r, ip.Stalls[r]
		}
	}
	return best, bestC
}

// WarpProf is the profile of one simulated warp instance.
type WarpProf struct {
	SM    int // SM instance index within the launch
	Block int // linear block index within the grid
	Warp  int // warp index within the block
	// Start is the cycle the warp became resident; End is one past the
	// cycle its EXIT issued. Every cycle in [Start, End) is attributed:
	// Issues + the sum over Stalls equals End - Start exactly.
	Start, End int64
	Issues     int64
	Stalls     [NumStallReasons]int64
}

// TraceEvent is one coalesced interval of a warp's timeline: a run of
// issue cycles (Reason == StallNone) or a maximal span of consecutive
// cycles stalled for one reason at one pc.
type TraceEvent struct {
	Warp   int // index into LaunchProfile.Warps
	PC     int // next-to-issue pc (first issued pc for a run)
	Reason StallReason
	Start  int64
	End    int64
}

// LDGSpan is one global load's MSHR residency: issue cycle to data
// return.
type LDGSpan struct {
	SM         int
	Start, End int64
}

// LaunchProfile is the full profile of one kernel launch.
type LaunchProfile struct {
	Kernel string
	// Insts is the decoded instruction stream (shared, read-only) so
	// reports can annotate the listing; PerInst is parallel to it.
	Insts   []sass.Inst
	PerInst []InstProf
	Warps   []WarpProf
	SimSMs  int
	// Cycles is the max cycle count over SM instances; SchedCycles the
	// total issue-slot cycles (sum over SMs of cycles * schedulers).
	Cycles      int64
	SchedCycles int64
	// IssuedSlots counts slot-cycles that issued an instruction;
	// SlotStalls attributes the rest to the highest-priority reason any
	// warp of the slot was blocked on (index StallNone: no resident
	// warp — the tail of a draining block or a start-up gap).
	IssuedSlots int64
	SlotStalls  [NumStallReasons]int64
	// LDGSpans lists in-flight intervals of global loads (capped at
	// MaxSpans; DroppedSpans counts the excess).
	LDGSpans     []LDGSpan
	DroppedSpans int64
	// Events is the coalesced warp timeline, recorded only when the
	// profiler's Timeline flag is set (capped at MaxEvents).
	Events        []TraceEvent
	DroppedEvents int64
}

// IssueSlotUtil is the fraction of issue-slot cycles that issued — the
// profiler's view of the paper's SOL denominator.
func (lp *LaunchProfile) IssueSlotUtil() float64 {
	if lp.SchedCycles == 0 {
		return 0
	}
	return float64(lp.IssuedSlots) / float64(lp.SchedCycles)
}

// WarpStallTotals sums the per-warp attribution over all warps; index
// StallNone holds the issue cycles.
func (lp *LaunchProfile) WarpStallTotals() [NumStallReasons]int64 {
	var t [NumStallReasons]int64
	for i := range lp.Warps {
		w := &lp.Warps[i]
		t[StallNone] += w.Issues
		for r := StallCtrl; r < NumStallReasons; r++ {
			t[r] += w.Stalls[r]
		}
	}
	return t
}

// TotalWarpCycles is the total resident warp-cycles profiled (the sum of
// every warp's End - Start).
func (lp *LaunchProfile) TotalWarpCycles() int64 {
	var t int64
	for i := range lp.Warps {
		t += lp.Warps[i].End - lp.Warps[i].Start
	}
	return t
}

// LDGOccupancy derives the in-flight global-load timeline from the
// recorded spans: mean loads in flight over the launch's cycles and the
// peak, across all SM instances.
func (lp *LaunchProfile) LDGOccupancy() (mean float64, peak int) {
	if len(lp.LDGSpans) == 0 || lp.Cycles == 0 {
		return 0, 0
	}
	// Sweep the +1/-1 deltas in time order per SM; spans of different
	// SMs overlap in simulated time but occupy distinct MSHR files, so
	// the peak is the max per-SM peak while the mean integrates all.
	type delta struct {
		at int64
		sm int
		d  int
	}
	deltas := make([]delta, 0, 2*len(lp.LDGSpans))
	var area int64
	for _, s := range lp.LDGSpans {
		deltas = append(deltas, delta{s.Start, s.SM, 1}, delta{s.End, s.SM, -1})
		area += s.End - s.Start
	}
	// Stable, so equal-time deltas keep their order and the peak is the
	// one the span order gives.
	sort.SliceStable(deltas, func(i, j int) bool { return deltas[i].at < deltas[j].at })
	cur := map[int]int{}
	for _, d := range deltas {
		cur[d.sm] += d.d
		if cur[d.sm] > peak {
			peak = cur[d.sm]
		}
	}
	return float64(area) / float64(lp.Cycles) / float64(lp.SimSMs), peak
}

// Profiler collects LaunchProfiles for every Launch of the Sim it is
// attached to (Sim.Prof). Like the Sim itself it is not safe for
// concurrent use; attach a fresh Profiler per Sim.
type Profiler struct {
	// Timeline enables per-interval TraceEvent collection (the Chrome
	// trace source). Aggregate counters are always collected.
	Timeline bool
	// MaxEvents / MaxSpans bound the timeline buffers (defaults 1<<20
	// and 1<<18); excess intervals increment the Dropped counters.
	MaxEvents int
	MaxSpans  int

	Launches []*LaunchProfile
}

// NewProfiler returns a profiler with default buffer bounds.
func NewProfiler() *Profiler { return &Profiler{} }

func (p *Profiler) maxEvents() int {
	if p.MaxEvents > 0 {
		return p.MaxEvents
	}
	return 1 << 20
}

func (p *Profiler) maxSpans() int {
	if p.MaxSpans > 0 {
		return p.MaxSpans
	}
	return 1 << 18
}

// warpState is the collector's per-warp scratch: the last issue
// timestamp (to tell an issue cycle from a stall cycle in the accounting
// pass) and the pending coalesced timeline interval.
type warpState struct {
	lastIssueAt int64
	lastIssuePC int
	ev          TraceEvent
	evValid     bool
}

// launchCollector accumulates one LaunchProfile across the launch's
// sequential SM instances.
type launchCollector struct {
	lp        *LaunchProfile
	timeline  bool
	maxEvents int
	maxSpans  int
	sm        int // current SM instance
	smBase    int // first warp index of the current SM instance
	ws        []warpState
}

func newLaunchCollector(p *Profiler, kernel string, prog *program) *launchCollector {
	return &launchCollector{
		lp: &LaunchProfile{
			Kernel:  kernel,
			Insts:   prog.insts,
			PerInst: make([]InstProf, len(prog.insts)),
		},
		timeline:  p.Timeline,
		maxEvents: p.maxEvents(),
		maxSpans:  p.maxSpans(),
	}
}

// beginSM marks the start of one SM instance's simulation.
func (c *launchCollector) beginSM(sm int) {
	c.sm = sm
	c.smBase = len(c.lp.Warps)
	c.lp.SimSMs++
}

// endSM folds the instance's totals and flushes pending timeline
// intervals.
func (c *launchCollector) endSM(cycles int64, schedulers int) {
	if cycles > c.lp.Cycles {
		c.lp.Cycles = cycles
	}
	c.lp.SchedCycles += cycles * int64(schedulers)
	for i := c.smBase; i < len(c.ws); i++ {
		c.flushEvent(&c.ws[i])
	}
}

// addWarp registers a newly resident warp and returns its profile index.
func (c *launchCollector) addWarp(block, warp int, now int64) int {
	idx := len(c.lp.Warps)
	c.lp.Warps = append(c.lp.Warps, WarpProf{SM: c.sm, Block: block, Warp: warp, Start: now})
	c.ws = append(c.ws, warpState{lastIssueAt: -1})
	return idx
}

// noteIssue records one instruction issue. The issue cycle itself is
// accounted here (not in profAccount) because the issuing warp may have
// exited — and, for the last warp of a block, already left its
// scheduler's warp list — by the time the accounting pass runs.
func (c *launchCollector) noteIssue(w *warp, pc int, now int64, exited bool) {
	st := &c.ws[w.profIdx]
	st.lastIssueAt = now
	st.lastIssuePC = pc
	wp := &c.lp.Warps[w.profIdx]
	wp.Issues++
	if exited {
		wp.End = now + 1
	}
	c.lp.PerInst[pc].Issues++
	c.lp.IssuedSlots++
	if c.timeline {
		c.extendEvent(w.profIdx, StallNone, pc, now, 1)
	}
}

// noteLDG records a global load's MSHR residency interval.
func (c *launchCollector) noteLDG(start, end int64) {
	if len(c.lp.LDGSpans) >= c.maxSpans {
		c.lp.DroppedSpans++
		return
	}
	c.lp.LDGSpans = append(c.lp.LDGSpans, LDGSpan{SM: c.sm, Start: start, End: end})
}

// extendEvent grows the warp's pending timeline interval or starts a new
// one. Consecutive cycles with the same reason coalesce; a run of issue
// cycles coalesces regardless of pc (keeping the first pc of the run).
func (c *launchCollector) extendEvent(idx int, reason StallReason, pc int, now, dt int64) {
	st := &c.ws[idx]
	if st.evValid && st.ev.Reason == reason && st.ev.End == now &&
		(reason == StallNone || st.ev.PC == pc) {
		st.ev.End = now + dt
		return
	}
	c.flushEvent(st)
	st.ev = TraceEvent{Warp: idx, PC: pc, Reason: reason, Start: now, End: now + dt}
	st.evValid = true
}

func (c *launchCollector) flushEvent(st *warpState) {
	if !st.evValid {
		return
	}
	st.evValid = false
	if len(c.lp.Events) >= c.maxEvents {
		c.lp.DroppedEvents++
		return
	}
	c.lp.Events = append(c.lp.Events, st.ev)
}

// merge folds one Sharded instance's part collector into this master
// collector. Parts are merged in instance order, which reproduces the
// sequential collection exactly: counters are integer sums (or a max for
// Cycles), warp tables concatenate in instance order with timeline warp
// indices remapped, and the span/event caps are applied at merge time —
// exact because every part individually retains at least the prefix the
// merged stream needs (each part's cap equals the global cap).
func (c *launchCollector) merge(part *launchCollector) {
	lp, pp := c.lp, part.lp
	lp.SimSMs += pp.SimSMs
	if pp.Cycles > lp.Cycles {
		lp.Cycles = pp.Cycles
	}
	lp.SchedCycles += pp.SchedCycles
	lp.IssuedSlots += pp.IssuedSlots
	for r := range pp.SlotStalls {
		lp.SlotStalls[r] += pp.SlotStalls[r]
	}
	for pc := range pp.PerInst {
		dst, src := &lp.PerInst[pc], &pp.PerInst[pc]
		dst.Issues += src.Issues
		for r := range src.Stalls {
			dst.Stalls[r] += src.Stalls[r]
		}
	}
	base := len(lp.Warps)
	lp.Warps = append(lp.Warps, pp.Warps...)
	for _, sp := range pp.LDGSpans {
		if len(lp.LDGSpans) >= c.maxSpans {
			lp.DroppedSpans++
			continue
		}
		lp.LDGSpans = append(lp.LDGSpans, sp)
	}
	lp.DroppedSpans += pp.DroppedSpans
	for _, e := range pp.Events {
		if len(lp.Events) >= c.maxEvents {
			lp.DroppedEvents++
			continue
		}
		e.Warp += base
		lp.Events = append(lp.Events, e)
	}
	lp.DroppedEvents += pp.DroppedEvents
}

// profAccount attributes the visited interval [sm.now, sm.now+dt) for
// every resident warp and issue slot. It runs once per visited cycle
// when a profiler is attached: between visited cycles no machine state
// changes, so each warp's classification holds for the whole interval.
func (sm *smSim) profAccount(dt int64) {
	c := sm.prof
	for _, sc := range sm.scheds {
		issuedHere := sc.profLastIssueAt == sm.now
		slotBest, slotPri := StallNone, -1
		for _, w := range sc.warps {
			if w.done {
				continue
			}
			st := &c.ws[w.profIdx]
			if st.lastIssueAt == sm.now {
				// Issue cycles (dt is always 1 on a cycle that issued)
				// are fully accounted at noteIssue time.
				continue
			}
			r := sm.stallReason(sc, w)
			if r == StallNone {
				r = StallNotSelected
			}
			c.lp.Warps[w.profIdx].Stalls[r] += dt
			if w.pc < len(c.lp.PerInst) {
				c.lp.PerInst[w.pc].Stalls[r] += dt
			}
			sm.m.WarpCycles[r] += dt
			if c.timeline {
				c.extendEvent(w.profIdx, r, w.pc, sm.now, dt)
			}
			if !issuedHere {
				if p := slotPriority[r]; p > slotPri {
					slotPri, slotBest = p, r
				}
			}
		}
		if !issuedHere {
			c.lp.SlotStalls[slotBest] += dt
		}
	}
}
