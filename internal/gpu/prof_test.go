package gpu

import (
	"reflect"
	"testing"

	"repro/internal/cubin"
)

// launchProfiled runs one kernel twice — bare and with a profiler
// attached — asserts the profiler changed nothing about the simulation,
// and returns the profile with its metrics.
func launchProfiled(t *testing.T, k *cubin.Kernel, opts LaunchOpts, params []uint32) (*LaunchProfile, *Metrics) {
	t.Helper()
	setup := func(s *Sim) LaunchOpts {
		x := s.Alloc(4 * 128)
		y := s.Alloc(4 * 128)
		xs := make([]float32, 128)
		for i := range xs {
			xs[i] = float32(i)
		}
		s.WriteF32(x.Addr, xs)
		s.WriteF32(y.Addr, xs)
		o := opts
		o.Params = append([]uint32{x.Addr, y.Addr}, params...)
		return o
	}

	bare := NewSim(RTX2070())
	mBare, err := bare.Launch(k, setup(bare))
	if err != nil {
		t.Fatal(err)
	}

	prof := NewProfiler()
	prof.Timeline = true
	s := NewSim(RTX2070())
	s.Prof = prof
	m, err := s.Launch(k, setup(s))
	if err != nil {
		t.Fatal(err)
	}

	// Profiling must be invisible to the simulation proper.
	if m.Cycles != mBare.Cycles || m.Issued != mBare.Issued ||
		m.MIOStallCycles != mBare.MIOStallCycles || m.MSHRStallCycles != mBare.MSHRStallCycles ||
		m.L2Hits != mBare.L2Hits || m.L2Misses != mBare.L2Misses {
		t.Fatalf("profiling perturbed the simulation: with=%+v without=%+v", m, mBare)
	}
	var zero [NumStallReasons]int64
	if mBare.WarpCycles != zero {
		t.Fatalf("WarpCycles populated without a profiler: %v", mBare.WarpCycles)
	}

	if len(prof.Launches) != 1 {
		t.Fatalf("got %d launch profiles, want 1", len(prof.Launches))
	}
	return prof.Launches[0], m
}

// checkReconciles asserts the profiler's core accounting identity: every
// resident warp-cycle lands in exactly one bucket.
func checkReconciles(t *testing.T, lp *LaunchProfile, m *Metrics) {
	t.Helper()
	if len(lp.Warps) == 0 {
		t.Fatal("no warps profiled")
	}
	var issues, stalls, resident int64
	for i := range lp.Warps {
		w := &lp.Warps[i]
		if w.End <= w.Start {
			t.Fatalf("warp %d/%d/%d has End %d <= Start %d", w.SM, w.Block, w.Warp, w.End, w.Start)
		}
		var s int64
		for r := StallCtrl; r < NumStallReasons; r++ {
			s += w.Stalls[r]
		}
		if got, want := w.Issues+s, w.End-w.Start; got != want {
			t.Errorf("warp %d/%d/%d: issues %d + stalls %d = %d, want residency %d",
				w.SM, w.Block, w.Warp, w.Issues, s, got, want)
		}
		issues += w.Issues
		stalls += s
		resident += w.End - w.Start
	}

	// Per-instruction totals agree with per-warp totals.
	var pcIssues, pcStalls int64
	for i := range lp.PerInst {
		pcIssues += lp.PerInst[i].Issues
		pcStalls += lp.PerInst[i].StallTotal()
	}
	if pcIssues != issues || pcIssues != m.Issued {
		t.Errorf("per-pc issues %d, per-warp %d, metrics %d", pcIssues, issues, m.Issued)
	}
	if pcStalls != stalls {
		t.Errorf("per-pc stalls %d != per-warp stalls %d", pcStalls, stalls)
	}

	// The Metrics-level breakdown carries the same attribution.
	var mc int64
	for _, v := range m.WarpCycles {
		mc += v
	}
	if mc != resident || mc != lp.TotalWarpCycles() {
		t.Errorf("metrics WarpCycles total %d, resident %d, profile %d", mc, resident, lp.TotalWarpCycles())
	}
	if m.WarpCycles[StallNone] != issues {
		t.Errorf("WarpCycles[issued] %d != issues %d", m.WarpCycles[StallNone], issues)
	}

	// Slot accounting covers every scheduler cycle.
	if lp.SchedCycles != m.SchedCycles {
		t.Errorf("profile sched-cycles %d != metrics %d", lp.SchedCycles, m.SchedCycles)
	}
	var slot int64
	for _, v := range lp.SlotStalls {
		slot += v
	}
	if lp.IssuedSlots+slot != lp.SchedCycles {
		t.Errorf("issued slots %d + stalled slots %d != sched-cycles %d",
			lp.IssuedSlots, slot, lp.SchedCycles)
	}
	if lp.IssuedSlots != m.Issued {
		t.Errorf("issued slots %d != issued %d", lp.IssuedSlots, m.Issued)
	}
}

// checkTimeline asserts the coalesced events tile each warp's residency:
// sorted, non-overlapping, summing to End-Start.
func checkTimeline(t *testing.T, lp *LaunchProfile) {
	t.Helper()
	if lp.DroppedEvents != 0 {
		t.Fatalf("%d events dropped in a tiny kernel", lp.DroppedEvents)
	}
	covered := make([]int64, len(lp.Warps))
	last := make([]int64, len(lp.Warps))
	for i := range last {
		last[i] = -1
	}
	for _, e := range lp.Events {
		if e.End <= e.Start {
			t.Fatalf("empty event %+v", e)
		}
		if last[e.Warp] > e.Start {
			t.Fatalf("event %+v overlaps previous end %d", e, last[e.Warp])
		}
		last[e.Warp] = e.End
		covered[e.Warp] += e.End - e.Start
	}
	for i := range lp.Warps {
		w := &lp.Warps[i]
		if covered[i] != w.End-w.Start {
			t.Errorf("warp %d timeline covers %d cycles, residency %d", i, covered[i], w.End-w.Start)
		}
	}
}

// TestProfileReconciliationSaxpy profiles the LDG/FFMA/STG kernel: stall
// sums must equal residency per warp, and the recorded LDG spans must
// match the load count.
func TestProfileReconciliationSaxpy(t *testing.T) {
	k := assemble(t, saxpySrc)
	lp, m := launchProfiled(t, k, LaunchOpts{Grid: 4, Block: 32}, []uint32{f32ToBits(0.5), 100})
	checkReconciles(t, lp, m)
	checkTimeline(t, lp)
	if int64(len(lp.LDGSpans)) != m.LDGCount {
		t.Errorf("%d LDG spans recorded, %d loads issued", len(lp.LDGSpans), m.LDGCount)
	}
	if _, peak := lp.LDGOccupancy(); peak < 1 || peak > 2 {
		t.Errorf("peak in-flight LDGs %d, want 1..2 (two loads per warp, one warp per SM)", peak)
	}
	// The saxpy FFMA waits on both loads via barriers: the dependency
	// wait must be visible in the attribution.
	tot := lp.WarpStallTotals()
	if tot[StallBarDep] == 0 {
		t.Error("no dependency-barrier stall cycles attributed in a load-dependent kernel")
	}
}

// TestProfileReconciliationBarrier profiles the shared-memory reverse
// kernel (BAR.SYNC, LDS/STS) through multiple blocks on one SM, covering
// the block-replacement path and BAR-sync attribution.
func TestProfileReconciliationBarrier(t *testing.T) {
	k := assemble(t, reverseSrc)
	lp, m := launchProfiled(t, k, LaunchOpts{Grid: 6, Block: 32, OneSM: true}, nil)
	checkReconciles(t, lp, m)
	checkTimeline(t, lp)
	if lp.SimSMs != 1 {
		t.Fatalf("SimSMs = %d, want 1", lp.SimSMs)
	}
	if len(lp.Warps) != 6 {
		t.Fatalf("%d warps profiled, want 6 (one per block)", len(lp.Warps))
	}
}

// TestProfilePerLaunch checks each Launch gets its own profile.
func TestProfilePerLaunch(t *testing.T) {
	k := assemble(t, saxpySrc)
	prof := NewProfiler()
	s := NewSim(RTX2070())
	s.Prof = prof
	x := s.Alloc(4 * 128)
	y := s.Alloc(4 * 128)
	opts := LaunchOpts{Grid: 2, Block: 32, Params: []uint32{x.Addr, y.Addr, f32ToBits(1.0), 64}}
	for i := 0; i < 3; i++ {
		if _, err := s.Launch(k, opts); err != nil {
			t.Fatal(err)
		}
	}
	if len(prof.Launches) != 3 {
		t.Fatalf("%d launch profiles, want 3", len(prof.Launches))
	}
	for i, lp := range prof.Launches {
		if lp.Kernel != "saxpy" || len(lp.Warps) != 2 {
			t.Fatalf("launch %d: kernel %q warps %d", i, lp.Kernel, len(lp.Warps))
		}
		// Timeline off by default: aggregates collected, no events.
		if len(lp.Events) != 0 {
			t.Fatalf("launch %d: events recorded with Timeline off", i)
		}
	}
}

// TestProfileEventCap checks the bounded-buffer policy drops, not grows.
func TestProfileEventCap(t *testing.T) {
	k := assemble(t, saxpySrc)
	prof := &Profiler{Timeline: true, MaxEvents: 4, MaxSpans: 1}
	s := NewSim(RTX2070())
	s.Prof = prof
	x := s.Alloc(4 * 128)
	y := s.Alloc(4 * 128)
	if _, err := s.Launch(k, LaunchOpts{Grid: 4, Block: 32, Params: []uint32{x.Addr, y.Addr, f32ToBits(1.0), 64}}); err != nil {
		t.Fatal(err)
	}
	lp := prof.Launches[0]
	if len(lp.Events) > 4 || lp.DroppedEvents == 0 {
		t.Fatalf("events %d (cap 4), dropped %d", len(lp.Events), lp.DroppedEvents)
	}
	if len(lp.LDGSpans) > 1 || lp.DroppedSpans == 0 {
		t.Fatalf("spans %d (cap 1), dropped %d", len(lp.LDGSpans), lp.DroppedSpans)
	}
}

// TestProfileReconciliationSharded asserts the accounting identities hold
// exactly on the sharded multi-SM path: per-instance collectors merged in
// instance order must keep every warp-cycle in exactly one bucket, agree
// with the per-pc and slot-level books, and produce the same attribution
// at any worker count.
func TestProfileReconciliationSharded(t *testing.T) {
	k := assemble(t, saxpySrc)
	const blocks = 64
	const words = blocks * 32

	run := func(workers int) (*LaunchProfile, *Metrics) {
		prof := NewProfiler()
		prof.Timeline = true
		s := NewSim(RTX2070())
		s.Workers = workers
		s.Prof = prof
		x := s.Alloc(4 * words)
		y := s.Alloc(4 * words)
		xs := make([]float32, words)
		for i := range xs {
			xs[i] = float32(i % 97)
		}
		s.WriteF32(x.Addr, xs)
		s.WriteF32(y.Addr, xs)
		var m Metrics
		err := s.LaunchM(k, LaunchOpts{
			Grid: blocks, Block: 32,
			Params:  []uint32{x.Addr, y.Addr, f32ToBits(0.5), words},
			Sharded: true,
		}, &m)
		if err != nil {
			t.Fatal(err)
		}
		return prof.Launches[0], &m
	}

	lp1, m1 := run(1)
	checkReconciles(t, lp1, m1)
	checkTimeline(t, lp1)

	lp4, m4 := run(4)
	checkReconciles(t, lp4, m4)
	checkTimeline(t, lp4)

	if !reflect.DeepEqual(m4, m1) {
		t.Errorf("metrics diverge across worker counts:\n w4=%+v\n w1=%+v", m4, m1)
	}
	if !reflect.DeepEqual(lp4.PerInst, lp1.PerInst) {
		t.Errorf("per-pc attribution diverges across worker counts")
	}
	if !reflect.DeepEqual(lp4.Warps, lp1.Warps) {
		t.Errorf("per-warp profiles diverge across worker counts")
	}
}
