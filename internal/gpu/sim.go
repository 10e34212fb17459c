package gpu

import (
	"fmt"
	"math"

	"repro/internal/cubin"
	"repro/internal/sass"
)

// Sim owns the simulated device: its global memory, the allocator, and
// launch machinery. One Sim can run many launches; memory persists across
// launches (so a filter-transform kernel can feed the main kernel).
//
// Concurrency contract: independent Sim instances share no mutable
// state — every NewSim allocates its own memory image, allocator offset,
// warp pool, and L2 model — so any number of Sims may run concurrently
// (the concurrent benchmark runner relies on this; `go test -race
// ./internal/gpu` keeps it honest). Launch reads the kernel through the
// process-wide decoded-program cache (program.go), which is itself safe
// for concurrent use and hands every Sim the same immutable decoded
// instruction stream. A single Sim is NOT safe for concurrent use: Alloc,
// WriteF32/ReadF32, and Launch all mutate the shared memory image, warp
// pool, and L2 model and must be serialized by the caller. Device is a
// plain value with read-only methods and may be copied and shared freely;
// the launched *cubin.Kernel is only read (and must never be mutated
// after its first Launch — the decode cache keys on its identity), so one
// cached kernel may feed many concurrent Sims.
type Sim struct {
	Dev Device
	// HazardCheck enables the control-code validator: instructions that
	// read or overwrite a register whose producing instruction has not
	// completed (fixed-latency stall too short, or a missing dependency-
	// barrier wait) are reported in Metrics.HazardViolations. The
	// simulator itself always computes correct results — the checker
	// reports what would have raced on real hardware.
	HazardCheck bool
	// Prof, when non-nil, records a LaunchProfile for every Launch:
	// per-instruction and per-warp stall attribution, issue-slot
	// utilization, and in-flight-LDG spans (see prof.go). Profiling is
	// read-only — it never changes simulated results — and with Prof nil
	// every hook reduces to one pointer compare, preserving the
	// zero-alloc issue path.
	Prof *Profiler
	// Oracle, when non-nil, logs every shared-memory access of a launch
	// and flags concrete races, out-of-bounds accesses, and divergent
	// barriers (see oracle.go) — the dynamic complement of the static
	// verifier in internal/sasscheck. Same discipline as Prof: read-only
	// and one pointer compare per hook when off.
	Oracle *SmemOracle
	// Backend selects the per-instruction execution engine (see
	// backend.go). The zero value is the threaded-code backend;
	// BackendSwitch runs every instruction through the per-lane reference
	// interpreter as the differential oracle. Both produce bit-identical
	// results.
	Backend Backend
	// Workers bounds the goroutine pool used for Sharded launches
	// (0 = GOMAXPROCS). Results are identical at any worker count.
	Workers int

	mem      mem
	allocOff uint32
	l2       *l2cache

	// pools is the Sim's per-instance recycling pool set (warps, shared
	// memory images, block states, scratch queues, and the SM-instance
	// shell), reused across blocks and launches so the steady-state hot
	// loop allocates nothing. Sharded launches give each worker its own
	// simPools. Serialized by the single-Sim contract above.
	pools simPools

	// Launch-scoped reusable buffers: the constant bank image and the
	// per-instance block lists (planLists slices into planInts), rebuilt
	// on every Launch without allocating in steady state.
	constsBuf []uint32
	planInts  []int
	planLists [][]int
	// shard carries the state of a Sharded launch (worker pools,
	// per-instance results, L2 snapshots); see backend.go.
	shard shardState
}

// smScratch is the reusable per-SM-instance buffer set. SM instances
// sharing one simPools run sequentially, so one set serves them all.
type smScratch struct {
	dispQ, globQ []int64
	events       []event
	lines        []uint32
	// smemStamp/smemGen are the shared-memory dedup stamp table (see
	// smemServiceFast). The generation survives pooling so stale stamps
	// can never collide with a fresh instance's generations.
	smemStamp []uint32
	smemGen   uint32
}

// NewSim creates a simulator for the given device model.
func NewSim(dev Device) *Sim {
	// Zero-valued model parameters get the paper defaults so hand-built
	// test devices work.
	dev = dev.WithDefaults()
	// The L2 is device-shared: concurrently resident blocks on different
	// SMs read the same filter tiles, so one SM's view of the cache sees
	// the full capacity (simulated SM instances share this model).
	return &Sim{Dev: dev, allocOff: 256, l2: newL2(dev.L2SizeBytes)}
}

// getWarp returns a zeroed warp with an operand array of nregs registers,
// recycling a retired one when possible.
func (p *simPools) getWarp(nregs int) *warp {
	if n := len(p.warpPool); n > 0 {
		w := p.warpPool[n-1]
		p.warpPool = p.warpPool[:n-1]
		regs, ready, bar, barRegs := w.regs, w.regReadyAt, w.regBar, w.barRegs
		*w = warp{}
		if cap(regs) >= nregs {
			regs = regs[:nregs]
			for i := range regs {
				regs[i] = [warpSize]uint32{}
			}
		} else {
			regs = make([][warpSize]uint32, nregs)
		}
		w.regs = regs
		w.regReadyAt, w.regBar = ready, bar
		for i := range barRegs {
			barRegs[i] = barRegs[i][:0]
		}
		w.barRegs = barRegs
		return w
	}
	return &warp{regs: make([][warpSize]uint32, nregs)}
}

// getSmem returns a zeroed shared-memory image of the given word count.
func (p *simPools) getSmem(words int) []uint32 {
	if n := len(p.smemPool); n > 0 {
		sm := p.smemPool[n-1]
		p.smemPool = p.smemPool[:n-1]
		if cap(sm) >= words {
			sm = sm[:words]
			for i := range sm {
				sm[i] = 0
			}
			return sm
		}
	}
	return make([]uint32, words)
}

// getBlock returns a reset blockState, recycling a retired one.
func (p *simPools) getBlock() *blockState {
	if n := len(p.blockPool); n > 0 {
		blk := p.blockPool[n-1]
		p.blockPool = p.blockPool[:n-1]
		blk.warps = blk.warps[:0]
		blk.barWait = 0
		blk.doneWarp = 0
		return blk
	}
	return &blockState{}
}

// LaunchOpts configures one kernel launch.
type LaunchOpts struct {
	// Grid is the x dimension of the grid; GridY and GridZ default to 1.
	// The total block count is Grid * GridY * GridZ; CTAID.X/Y/Z are
	// recovered from the linear block index.
	Grid         int
	GridY, GridZ int
	// Block is threads per block (multiple of 32).
	Block int
	// Params is the kernel-parameter area, written to constant bank 0 at
	// cubin.ParamBase word by word.
	Params []uint32
	// MaxBlocks, when positive, simulates only the first MaxBlocks
	// blocks — a timing sample; callers extrapolate whole-grid time via
	// wave counts. 0 simulates every block (full functional run).
	MaxBlocks int
	// OneSM forces all simulated blocks through a single SM instance,
	// the configuration used for steady-state main-loop measurements.
	OneSM bool
	// SampleWaves/SampleSMs select wave sampling: SampleSMs instances
	// (sharing the device L2 model) each run SampleWaves waves, taking
	// every (SMs/SampleSMs)-th resident slot of each device wave. This
	// captures both the cross-grid block mix within a wave and the
	// constructive L2 sharing between concurrently resident blocks.
	// Overrides MaxBlocks/OneSM when set.
	SampleWaves, SampleSMs int
	// Sharded makes the launch's SM instances independent so they can run
	// in parallel on Sim.Workers goroutines: every instance starts from a
	// private snapshot of the launch-entry L2 state (instead of chaining
	// L2 state through the sequential instance order), and the exit L2
	// state is the final state of the last instance. Results are identical
	// at any worker count by construction. Functional results (memory
	// contents) are unchanged; timing differs slightly from a non-Sharded
	// launch because inter-instance L2 chaining — itself an artifact of
	// sequential simulation — is removed. Incompatible with wave sampling
	// (SampleWaves > 0), whose instances deliberately share one L2 model.
	// Sharded instances may not grow global memory: stores beyond the
	// allocated watermark are reported as errors instead of racing.
	Sharded bool
}

// Metrics aggregates counters over all simulated SM instances.
type Metrics struct {
	Device     string
	Kernel     string
	GridBlocks int // requested grid size
	SimBlocks  int // blocks actually simulated
	SimSMs     int
	Occupancy  Occupancy

	Cycles      int64 // max cycle count over SM instances
	SchedCycles int64 // sum over SMs of cycles * schedulers (issue slots)

	Issued    int64
	FFMAs     int64 // FFMA warp instructions issued
	FPIssued  int64
	IntIssued int64
	MemIssued int64
	LDGCount  int64
	STGCount  int64
	LDSCount  int64
	STSCount  int64

	FPPipeUseful       int64 // FP-pipe cycles doing work (2 per warp op)
	RegBankConflicts   int64 // extra FP-pipe cycles from register bank conflicts
	SmemConflictCycles int64 // extra MIO cycles from shared-memory bank conflicts
	SwitchCount        int64 // warp switches (each costs one issue cycle)
	MIOStallCycles     int64 // scheduler-cycles blocked on the full MIO dispatch queue
	MSHRStallCycles    int64 // scheduler-cycles blocked on exhausted MSHRs
	L2Hits, L2Misses   int64

	// WarpCycles attributes every resident warp-cycle to a StallReason
	// (index StallNone counts issue cycles). Populated only when a
	// Profiler is attached to the Sim; all-zero otherwise, so existing
	// outputs are unchanged when profiling is off.
	WarpCycles [NumStallReasons]int64

	HazardViolations []string
}

// SOL is the achieved fraction of FP32 peak — the paper's Speed-Of-Light
// metric (Section 7.2): useful FP-pipe cycles over available issue-slot
// cycles.
func (m *Metrics) SOL() float64 {
	if m.SchedCycles == 0 {
		return 0
	}
	return float64(m.FPPipeUseful) / float64(m.SchedCycles)
}

// FLOPs returns the floating-point operations executed (2 per FFMA lane,
// 1 per FADD/FMUL lane).
func (m *Metrics) FLOPs() float64 {
	return float64(m.FFMAs)*2*warpSize + float64(m.FPIssued-m.FFMAs)*warpSize
}

const (
	fpLatency     = 4  // FFMA/FADD/FMUL result latency
	intLatency    = 5  // ALU result latency
	s2rLatency    = 25 // special-register read latency
	smemLatency   = 19 // LDS data-return latency after service
	barLatency    = 30 // BAR.SYNC release overhead
	blockStartGap = 100
	maxViolations = 16
)

// Launch runs a kernel and returns aggregated metrics.
func (s *Sim) Launch(k *cubin.Kernel, opts LaunchOpts) (*Metrics, error) {
	m := new(Metrics)
	if err := s.LaunchM(k, opts, m); err != nil {
		return nil, err
	}
	return m, nil
}

// LaunchM is Launch with a caller-owned Metrics: the steady-state
// allocation-free entry point. *total is overwritten.
func (s *Sim) LaunchM(k *cubin.Kernel, opts LaunchOpts, total *Metrics) error {
	if opts.GridY <= 0 {
		opts.GridY = 1
	}
	if opts.GridZ <= 0 {
		opts.GridZ = 1
	}
	if opts.Grid <= 0 {
		return fmt.Errorf("gpu: grid must be positive")
	}
	if opts.Block <= 0 || opts.Block%32 != 0 {
		return fmt.Errorf("gpu: block size %d is not a positive multiple of 32", opts.Block)
	}
	if opts.Sharded && opts.SampleWaves > 0 {
		return fmt.Errorf("gpu: Sharded launches are incompatible with wave sampling (instances share one L2 model)")
	}
	prog, err := decodeProgram(k)
	if err != nil {
		return err
	}
	occ, err := s.Dev.OccupancyFor(opts.Block, k.NumRegs, k.SmemBytes)
	if err != nil {
		return err
	}
	if len(opts.Params)*4 > k.ParamBytes && k.ParamBytes > 0 {
		return fmt.Errorf("gpu: %d param bytes passed, kernel declares %d", len(opts.Params)*4, k.ParamBytes)
	}

	// Constant bank 0: [0]=gridDim.x, [1]=blockDim.x, then params at 0x160.
	nConsts := cubin.ParamBase/4 + len(opts.Params)
	if cap(s.constsBuf) < nConsts {
		s.constsBuf = make([]uint32, nConsts)
	}
	consts := s.constsBuf[:nConsts]
	for i := range consts {
		consts[i] = 0
	}
	consts[0] = uint32(opts.Grid)
	consts[1] = uint32(opts.Block)
	copy(consts[cubin.ParamBase/4:], opts.Params)

	gridBlocks := opts.Grid * opts.GridY * opts.GridZ
	simBlocks := gridBlocks
	if opts.MaxBlocks > 0 && opts.MaxBlocks < simBlocks {
		simBlocks = opts.MaxBlocks
	}
	smCount := s.Dev.SMs
	if opts.OneSM {
		smCount = 1
	}
	// Blocks are dealt round-robin over SM instances; instances with no
	// blocks are not simulated.
	if smCount > simBlocks {
		smCount = simBlocks
	}
	if opts.SampleWaves > 0 {
		smCount = opts.SampleSMs
		if smCount <= 0 {
			smCount = 1
		}
		simBlocks = smCount * opts.SampleWaves * occ.BlocksPerSM
	}

	// Build the launch plan — every instance's block list — up front into
	// the pooled buffers. The total entry count is exactly simBlocks, so
	// with capacity ensured the appends below never reallocate and the
	// planLists slices stay valid.
	if cap(s.planInts) < simBlocks {
		s.planInts = make([]int, 0, simBlocks)
	}
	if cap(s.planLists) < smCount {
		s.planLists = make([][]int, 0, smCount)
	}
	ints := s.planInts[:0]
	lists := s.planLists[:0]
	for smi := 0; smi < smCount; smi++ {
		start := len(ints)
		if opts.SampleWaves > 0 {
			// Wave sampling: this instance plays SM number
			// smi*(SMs/smCount) of each device wave.
			smSpread := s.Dev.SMs / smCount
			if smSpread < 1 {
				smSpread = 1
			}
			waveSize := s.Dev.SMs * occ.BlocksPerSM
			for w := 0; w < opts.SampleWaves; w++ {
				base := w*waveSize + smi*smSpread*occ.BlocksPerSM
				for j := 0; j < occ.BlocksPerSM; j++ {
					ints = append(ints, (base+j)%gridBlocks)
				}
			}
		} else {
			for b := smi; len(ints)-start < (simBlocks+smCount-1-smi)/smCount; b += smCount {
				ints = append(ints, b%gridBlocks)
			}
		}
		lists = append(lists, ints[start:len(ints)])
	}
	s.planInts, s.planLists = ints, lists

	*total = Metrics{
		Device:     s.Dev.Name,
		Kernel:     k.Name,
		GridBlocks: opts.Grid,
		SimBlocks:  simBlocks,
		SimSMs:     smCount,
		Occupancy:  occ,
	}

	lc := &s.shard.lc
	*lc = launchCtx{
		dev:     &s.Dev,
		gmem:    &s.mem,
		kern:    k,
		prog:    prog,
		consts:  consts,
		occ:     occ,
		gridX:   opts.Grid,
		gridY:   opts.GridY,
		hazard:  s.HazardCheck,
		oracle:  s.Oracle,
		backend: s.Backend,
	}
	if opts.Sharded {
		lc.memLimit = len(s.mem.data)
		return s.launchSharded(total, k.Name, lists)
	}

	var coll *launchCollector
	if s.Prof != nil {
		coll = newLaunchCollector(s.Prof, k.Name, prog)
	}
	for smi, blocks := range lists {
		if coll != nil {
			coll.beginSM(smi)
		}
		inst := lc.newInstance(&s.pools, blocks, s.l2, coll)
		if err := inst.run(); err != nil {
			return fmt.Errorf("gpu: SM %d: %w", smi, err)
		}
		if coll != nil {
			coll.endSM(inst.now, len(inst.scheds))
		}
		inst.fold(total)
		inst.release()
	}
	if coll != nil {
		s.Prof.Launches = append(s.Prof.Launches, coll.lp)
	}
	return nil
}

// event kinds for the SM event queue.
const (
	evBarRelease = iota
	evBlockLoad
)

type event struct {
	at   int64
	kind int
	warp *warp
	bar  int8
}

type scheduler struct {
	warps        []*warp
	last         *warp
	rr           int
	busyUntil    int64
	fpBusyUntil  int64
	intBusyUntil int64
	// profLastIssueAt is the last cycle this slot issued; written only
	// when a profiler is attached (-1 before the first issue).
	profLastIssueAt int64
}

// launchCtx is the launch-invariant context shared by every SM instance
// of one Launch: read-only while instances run, so Sharded workers can
// consume it concurrently.
type launchCtx struct {
	dev    *Device
	gmem   *mem
	kern   *cubin.Kernel
	prog   *program
	consts []uint32
	occ    Occupancy
	gridX  int
	gridY  int
	hazard bool
	// oracle is the launch's shared-memory access logger, nil when off;
	// shared by Sharded workers (its record methods lock).
	oracle *SmemOracle
	// memLimit, when positive, bounds global stores (in words): Sharded
	// instances must not grow the shared memory image, so a store beyond
	// the allocation watermark is an error instead of a data race.
	memLimit int
	backend  Backend
}

type smSim struct {
	dev    *Device
	gmem   *mem
	kern   *cubin.Kernel
	nodes  []node
	prog   *program
	consts []uint32
	pools  *simPools

	hazard   bool
	memLimit int
	oracle   *SmemOracle
	backend  Backend

	occ          Occupancy
	gridX, gridY int
	pending      []int // block indices not yet resident
	resident     int
	now          int64
	scheds       []*scheduler
	warpSeq      int
	// events is an unsorted small queue; nextEventAt caches the earliest
	// entry so the per-cycle fireEvents check is a single compare.
	events      []event
	nextEventAt int64
	// MIO front end. All memory instructions pass through one shared
	// dispatch queue (dispQ, slots held until the owning pipe starts
	// servicing) — a burst of LDGs therefore delays LDS dispatch, the
	// paper's "stalled by busy load/store units". Global loads
	// additionally hold an MSHR (globQ) until their data returns.
	dispQ, globQ []int64
	smemFree     int64
	globFree     int64
	dramFree     int64
	l2           *l2cache
	bwCycles     float64 // DRAM transfer cycles per 128-byte line, per-SM share
	lineScratch  []uint32
	smemStamp    []uint32
	smemGen      uint32

	// Per-instance device timing, copied out of the (defaulted) Device at
	// newInstance so the issue paths read flat int64 fields instead of
	// chasing the Device pointer. Both backends consult exactly these.
	fpLat   int64 // Lat.FP32: FFMA/FADD/FMUL result latency
	aluLat  int64 // Lat.ALU: integer result latency
	s2rLat  int64 // Lat.S2R: special-register read latency
	smemLat int64 // Lat.Smem: LDS data return after bank service
	barLat  int64 // Lat.BarSync: barrier release overhead
	fpDur   int64 // FP32 pipe occupancy per warp op: 32/FP32Lanes cycles
	// smemBanksN/smemBPC parameterize the shared-memory bank model (zero
	// means paper default, so the zero-value smSim the equivalence test
	// builds still prices like smemService).
	smemBanksN uint32
	smemBPC    uint32

	// prof is the launch's profile collector, nil when profiling is off
	// (the only state the hot-loop hooks test).
	prof *launchCollector

	m Metrics
}

// newInstance builds one SM instance on the given pool set, reusing the
// pool's instance shell and scheduler objects so the steady state
// allocates nothing.
func (lc *launchCtx) newInstance(pools *simPools, blocks []int, l2 *l2cache, coll *launchCollector) *smSim {
	dev := lc.dev
	perLine := float64(l2Line) / (dev.DRAMBandwidthGBs / dev.ClockGHz / float64(dev.SMs))
	sm := pools.shell
	if sm == nil {
		sm = &smSim{}
		pools.shell = sm
	}
	scheds := sm.scheds
	*sm = smSim{
		dev:         dev,
		gmem:        lc.gmem,
		kern:        lc.kern,
		nodes:       lc.prog.nodes,
		prog:        lc.prog,
		consts:      lc.consts,
		pools:       pools,
		hazard:      lc.hazard,
		memLimit:    lc.memLimit,
		oracle:      lc.oracle,
		backend:     lc.backend,
		occ:         lc.occ,
		gridX:       lc.gridX,
		gridY:       lc.gridY,
		pending:     blocks,
		nextEventAt: math.MaxInt64,
		dispQ:       pools.scratch.dispQ[:0],
		globQ:       pools.scratch.globQ[:0],
		events:      pools.scratch.events[:0],
		lineScratch: pools.scratch.lines[:0],
		smemStamp:   pools.scratch.smemStamp,
		smemGen:     pools.scratch.smemGen,
		l2:          l2,
		bwCycles:    perLine,
		prof:        coll,
		fpLat:       int64(dev.Lat.FP32),
		aluLat:      int64(dev.Lat.ALU),
		s2rLat:      int64(dev.Lat.S2R),
		smemLat:     int64(dev.Lat.Smem),
		barLat:      int64(dev.Lat.BarSync),
		fpDur:       int64(warpSize / dev.FP32Lanes),
		smemBanksN:  uint32(dev.SmemBanks),
		smemBPC:     uint32(dev.SmemBytesPerCycle),
	}
	if sm.fpDur < 1 {
		sm.fpDur = 1
	}
	if sm.dispQ == nil {
		sm.dispQ = make([]int64, 0, dev.MIOQueueDepth+1)
	}
	if sm.globQ == nil {
		sm.globQ = make([]int64, 0, dev.MSHRs+1)
	}
	if len(scheds) != dev.SchedulersPerSM {
		scheds = make([]*scheduler, dev.SchedulersPerSM)
		for i := range scheds {
			scheds[i] = &scheduler{profLastIssueAt: -1}
		}
	} else {
		for _, sc := range scheds {
			*sc = scheduler{warps: sc.warps[:0], profLastIssueAt: -1}
		}
	}
	sm.scheds = scheds
	for i := 0; i < lc.occ.BlocksPerSM && len(sm.pending) > 0; i++ {
		sm.loadBlock()
	}
	return sm
}

// release hands the instance's scratch buffers back to its pool set for
// the next SM instance or launch, and recycles warps that were still
// awaiting a dependency-barrier release when their block retired: the
// run is over, so no event can touch them anymore.
func (sm *smSim) release() {
	p := sm.pools
	p.scratch = smScratch{
		dispQ:     sm.dispQ[:0],
		globQ:     sm.globQ[:0],
		events:    sm.events[:0],
		lines:     sm.lineScratch[:0],
		smemStamp: sm.smemStamp,
		smemGen:   sm.smemGen,
	}
	p.warpPool = append(p.warpPool, p.parked...)
	p.parked = p.parked[:0]
}

// loadBlock makes the next pending block resident and spreads its warps
// over the schedulers.
func (sm *smSim) loadBlock() {
	blkIdx := sm.pending[0]
	sm.pending = sm.pending[1:]
	sm.resident++
	threads := int(sm.consts[1])
	nw := threads / warpSize
	blk := sm.pools.getBlock()
	blk.blockIdx = blkIdx
	blk.ctaid = [3]int{
		blkIdx % sm.gridX,
		(blkIdx / sm.gridX) % sm.gridY,
		blkIdx / (sm.gridX * sm.gridY),
	}
	blk.smem = sm.pools.getSmem((sm.kern.SmemBytes + 3) / 4)
	// Size the architectural register array from the code itself: the
	// declared NumRegs governs occupancy, but a kernel that touches a
	// register above its declaration (modelling a baseline whose real
	// implementation would spill or re-derive) must still execute. The
	// code scan is done once per kernel by the decoded-program cache.
	regs := sm.kern.NumRegs
	if sm.prog.maxRegUsed > regs {
		regs = sm.prog.maxRegUsed
	}
	if regs < 16 {
		regs = 16
	}
	hazard := sm.hazard
	for wi := 0; wi < nw; wi++ {
		w := sm.pools.getWarp(regs + 4)
		w.idx = wi
		w.global = sm.warpSeq
		w.block = blk
		w.nextIssue = sm.now
		if hazard {
			// The hazard checker's scoreboard is dense per-register
			// state; allocated only when the checker is on.
			if w.regReadyAt == nil {
				w.regReadyAt = make([]int64, 256)
				w.regBar = make([]int8, 256)
			} else {
				for i := range w.regReadyAt {
					w.regReadyAt[i] = 0
				}
			}
			for i := range w.regBar {
				w.regBar[i] = -1
			}
		}
		if sm.prof != nil {
			w.profIdx = sm.prof.addWarp(blkIdx, wi, sm.now)
		}
		blk.warps = append(blk.warps, w)
		sched := sm.scheds[sm.warpSeq%len(sm.scheds)]
		sched.warps = append(sched.warps, w)
		sm.warpSeq++
	}
}

// fold adds this SM's counters into the launch totals.
func (sm *smSim) fold(t *Metrics) {
	foldMetrics(t, &sm.m, sm.now, len(sm.scheds))
}

// foldMetrics folds one SM instance's counters into the launch totals.
// It is shared by the sequential path (fold) and the Sharded merge,
// which replays instances in instance order so the totals are identical
// at any worker count (integer sums commute; Cycles is a max).
func foldMetrics(t, m *Metrics, now int64, nscheds int) {
	if now > t.Cycles {
		t.Cycles = now
	}
	t.SchedCycles += now * int64(nscheds)
	t.Issued += m.Issued
	t.FFMAs += m.FFMAs
	t.FPIssued += m.FPIssued
	t.IntIssued += m.IntIssued
	t.MemIssued += m.MemIssued
	t.LDGCount += m.LDGCount
	t.STGCount += m.STGCount
	t.LDSCount += m.LDSCount
	t.STSCount += m.STSCount
	t.FPPipeUseful += m.FPPipeUseful
	t.RegBankConflicts += m.RegBankConflicts
	t.SmemConflictCycles += m.SmemConflictCycles
	t.SwitchCount += m.SwitchCount
	t.MIOStallCycles += m.MIOStallCycles
	t.MSHRStallCycles += m.MSHRStallCycles
	t.L2Hits += m.L2Hits
	t.L2Misses += m.L2Misses
	for i := range m.WarpCycles {
		t.WarpCycles[i] += m.WarpCycles[i]
	}
	for _, v := range m.HazardViolations {
		if len(t.HazardViolations) < maxViolations {
			t.HazardViolations = append(t.HazardViolations, v)
		}
	}
}

// run simulates the SM instance to completion: the one scheduling loop
// both backends share.
func (sm *smSim) run() error {
	idleGuard := 0
	for sm.resident > 0 || len(sm.pending) > 0 {
		if sm.nextEventAt <= sm.now {
			sm.fireEvents()
		}
		issued := false
		for _, sc := range sm.scheds {
			ok, err := sm.tryIssue(sc)
			if err != nil {
				return err
			}
			issued = issued || ok
		}
		if issued {
			if sm.prof != nil {
				sm.profAccount(1)
			}
			sm.now++
			idleGuard = 0
			continue
		}
		next, found := sm.nextWake()
		if !found {
			if sm.resident == 0 && len(sm.pending) > 0 {
				// Shouldn't happen: block loads are events.
				return fmt.Errorf("stalled with pending blocks at cycle %d", sm.now)
			}
			return fmt.Errorf("deadlock at cycle %d: no eligible warp and no pending event", sm.now)
		}
		if next <= sm.now {
			next = sm.now + 1
		}
		// The skipped interval [now, next) has constant machine state, so
		// one classification covers every cycle of it.
		if sm.prof != nil {
			sm.profAccount(next - sm.now)
		}
		sm.now = next
		idleGuard++
		if idleGuard > 1<<20 {
			return fmt.Errorf("livelock at cycle %d", sm.now)
		}
	}
	return nil
}

// nextWake finds the earliest future cycle at which anything can change.
func (sm *smSim) nextWake() (int64, bool) {
	best := int64(-1)
	upd := func(t int64) {
		if t > sm.now && (best < 0 || t < best) {
			best = t
		}
	}
	if sm.nextEventAt != math.MaxInt64 {
		upd(sm.nextEventAt)
	}
	for _, sc := range sm.scheds {
		upd(sc.busyUntil)
		upd(sc.fpBusyUntil)
		upd(sc.intBusyUntil)
		for _, w := range sc.warps {
			if !w.done && !w.atBar {
				upd(w.nextIssue)
			}
		}
	}
	for _, t := range sm.dispQ {
		upd(t)
	}
	for _, t := range sm.globQ {
		upd(t)
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// addEvent enqueues a future event, keeping the earliest-entry cache.
func (sm *smSim) addEvent(e event) {
	sm.events = append(sm.events, e)
	if e.at < sm.nextEventAt {
		sm.nextEventAt = e.at
	}
}

func (sm *smSim) fireEvents() {
	kept := sm.events[:0]
	next := int64(math.MaxInt64)
	for _, e := range sm.events {
		if e.at > sm.now {
			kept = append(kept, e)
			if e.at < next {
				next = e.at
			}
			continue
		}
		switch e.kind {
		case evBarRelease:
			w := e.warp
			w.barPending[e.bar]--
			if w.barPending[e.bar] == 0 {
				w.barMask &^= 1 << uint(e.bar)
				if sm.hazard {
					for _, r := range w.barRegs[e.bar] {
						w.regBar[r] = -1
						w.regReadyAt[r] = 0
					}
					w.barRegs[e.bar] = w.barRegs[e.bar][:0]
				}
			}
		case evBlockLoad:
			if len(sm.pending) > 0 {
				sm.loadBlock()
			}
		}
	}
	sm.events = kept
	sm.nextEventAt = next
}

// mioSlotFree reports MIO availability: every memory instruction needs a
// shared dispatch slot, and global loads additionally need a free MSHR.
// Released queue entries are pruned lazily — only when a queue looks full
// — which keeps the common eligibility check O(1). Pruning drops only
// entries that have already expired, which no later check or wake-up
// reads, so calling it more often never changes the simulation.
func (sm *smSim) mioSlotFree(isLDG bool) bool {
	if len(sm.dispQ) >= sm.dev.MIOQueueDepth {
		pruneQueue(&sm.dispQ, sm.now)
		if len(sm.dispQ) >= sm.dev.MIOQueueDepth {
			return false
		}
	}
	if isLDG {
		if len(sm.globQ) >= sm.dev.MSHRs {
			pruneQueue(&sm.globQ, sm.now)
			if len(sm.globQ) >= sm.dev.MSHRs {
				return false
			}
		}
	}
	return true
}

func pruneQueue(q *[]int64, now int64) {
	kept := (*q)[:0]
	for _, t := range *q {
		if t > now {
			kept = append(kept, t)
		}
	}
	*q = kept
}

// stallReason is the scheduler's one eligibility rule: it reports why
// warp w cannot issue its next instruction this cycle, or StallNone when
// it may. tryIssue picks among the StallNone warps; profAccount charges
// every other resident warp-cycle to the returned reason. Done and
// barrier-parked warps carry an infinite nextIssue (warpExit,
// warpBarrier), so the first compare covers them too.
func (sm *smSim) stallReason(sc *scheduler, w *warp) StallReason {
	if w.nextIssue > sm.now {
		if w.atBar {
			return StallBarSync
		}
		return StallCtrl
	}
	if w.pc >= len(sm.nodes) {
		return StallCtrl
	}
	nd := &sm.nodes[w.pc]
	if nd.waitMask&w.barMask != 0 {
		return StallBarDep
	}
	switch nd.class {
	case classMem:
		if !sm.mioSlotFree(nd.isLDG) {
			// mioSlotFree tests the dispatch queue first, so a queue
			// with room left means the load found every MSHR held.
			if nd.isLDG && len(sm.dispQ) < sm.dev.MIOQueueDepth {
				return StallMSHRFull
			}
			return StallMIOFull
		}
	case classFP:
		if sc.fpBusyUntil > sm.now {
			return StallPipe
		}
	case classInt:
		if sc.intBusyUntil > sm.now {
			return StallPipe
		}
	}
	return StallNone
}

func isFP(op sass.Opcode) bool {
	return op == sass.OpFFMA || op == sass.OpFADD || op == sass.OpFMUL
}

func isInt(op sass.Opcode) bool {
	switch op {
	case sass.OpMOV, sass.OpIADD3, sass.OpIMAD, sass.OpISETP, sass.OpLOP3,
		sass.OpSHF, sass.OpSEL, sass.OpS2R, sass.OpP2R, sass.OpR2P:
		return true
	}
	return false
}

// tryIssue attempts one instruction issue on a scheduler. Selection is
// the same for both backends; sm.backend decides only, inside issue,
// which function executes the chosen warp's instruction.
func (sm *smSim) tryIssue(sc *scheduler) (bool, error) {
	if sc.busyUntil > sm.now || len(sc.warps) == 0 {
		return false, nil
	}
	var chosen *warp
	blocked := StallNone
	now := sm.now
	// Yield semantics (paper Section 6.1): when the last instruction of
	// the current warp had the yield bit set, the scheduler prefers to
	// keep issuing from it; when cleared it prefers any other warp, and
	// switching costs one cycle and invalidates the reuse cache.
	if sc.last != nil && sc.last.lastYield && sc.last.nextIssue <= now &&
		sm.canIssue(sc, sc.last, &blocked) {
		chosen = sc.last
	}
	if chosen == nil {
		n := len(sc.warps)
		// Round-robin scan without the per-step modulo: idx walks the
		// ring starting one past rr, wrapping once at most. The stalled
		// check is inlined — it also rejects done and barrier-parked
		// warps (infinite nextIssue) — so the common rejection costs one
		// compare, not a call.
		idx := (sc.rr + 1) % n
		for i := 1; i <= n; i++ {
			w := sc.warps[idx]
			cur := idx
			idx++
			if idx == n {
				idx = 0
			}
			if w.nextIssue > now || w == sc.last {
				continue
			}
			if sm.canIssue(sc, w, &blocked) {
				chosen = w
				sc.rr = cur
				break
			}
		}
		// Fall back to the current warp even when it asked to yield.
		if chosen == nil && sc.last != nil && sc.last.nextIssue <= now &&
			sm.canIssue(sc, sc.last, &blocked) {
			chosen = sc.last
		}
	}
	if chosen == nil {
		switch blocked {
		case StallMIOFull:
			sm.m.MIOStallCycles++
		case StallMSHRFull:
			sm.m.MSHRStallCycles++
		}
		return false, nil
	}
	return true, sm.issue(sc, chosen)
}

// canIssue reports whether w may issue now. A warp blocked on a memory
// queue is folded into *blocked for the scheduler's stall counters, MSHR
// exhaustion outranking a full dispatch queue.
func (sm *smSim) canIssue(sc *scheduler, w *warp, blocked *StallReason) bool {
	r := sm.stallReason(sc, w)
	if (r == StallMIOFull || r == StallMSHRFull) && r > *blocked {
		*blocked = r
	}
	return r == StallNone
}

// warpBarrier parks a warp at BAR.SYNC, releasing the whole block when it
// is the last arrival. Shared by both execution backends.
func (sm *smSim) warpBarrier(w *warp, in *sass.Inst) {
	if sm.oracle != nil {
		sm.oracle.noteBarrier(w, in)
	}
	blk := w.block
	w.atBar = true
	// Parked warps carry an infinite nextIssue so the issue scan rejects
	// them with the same single compare that covers stalled warps;
	// releaseBarrier restores the real wake time (always now+barLat: the
	// pre-park nextIssue is at most issue time + 15, and Device.Validate
	// requires Lat.BarSync > 15, so the old max() could never pick the
	// pre-park value).
	w.nextIssue = math.MaxInt64
	blk.barWait++
	if blk.barWait >= len(blk.warps)-blk.doneWarp {
		sm.releaseBarrier(blk)
	}
}

func (sm *smSim) releaseBarrier(blk *blockState) {
	blk.barWait = 0
	for _, bw := range blk.warps {
		if bw.atBar {
			bw.atBar = false
			bw.nextIssue = sm.now + sm.barLat
		}
	}
}

// warpExit retires an exiting warp, retiring its block when it is the
// last one out. Shared by both execution backends.
func (sm *smSim) warpExit(w *warp) {
	w.done = true
	// Done warps never issue again; the infinite nextIssue lets the
	// issue scan reject them with the stalled-warp compare alone.
	w.nextIssue = math.MaxInt64
	blk := w.block
	blk.doneWarp++
	if blk.doneWarp == len(blk.warps) {
		sm.retireBlock(blk)
	} else if blk.barWait > 0 && blk.barWait >= len(blk.warps)-blk.doneWarp {
		// The exit may satisfy a barrier the other warps wait at.
		sm.releaseBarrier(blk)
	}
}

// retireBlock removes a finished block and schedules a replacement.
// Quiescent warps (no outstanding dependency-barrier events) return to
// the pool for the next block; a warp with an event still in flight is
// parked until the instance finishes (release), so the late release
// cannot touch a recycled warp.
func (sm *smSim) retireBlock(blk *blockState) {
	sm.resident--
	for _, sc := range sm.scheds {
		kept := sc.warps[:0]
		for _, w := range sc.warps {
			if w.block != blk {
				kept = append(kept, w)
			}
		}
		sc.warps = kept
		if sc.last != nil && sc.last.block == blk {
			sc.last = nil
		}
	}
	sm.pools.smemPool = append(sm.pools.smemPool, blk.smem)
	for _, w := range blk.warps {
		w.block = nil
		if w.quiescent() {
			sm.pools.warpPool = append(sm.pools.warpPool, w)
		} else {
			sm.pools.parked = append(sm.pools.parked, w)
		}
	}
	blk.warps = blk.warps[:0]
	blk.smem = nil
	sm.pools.blockPool = append(sm.pools.blockPool, blk)
	if len(sm.pending) > 0 {
		sm.addEvent(event{at: sm.now + blockStartGap, kind: evBlockLoad})
	}
}

// issueMem models the MIO front end and performs the data movement.
func (sm *smSim) issueMem(w *warp, in *sass.Inst, mi *instMeta, req *memRequest, base int64) error {
	sm.m.MemIssued++
	start := base + 1
	var serviceEnd int64
	var dataAt int64

	if req.shared {
		if req.op == sass.OpLDS {
			sm.m.LDSCount++
		} else {
			sm.m.STSCount++
		}
		if sm.oracle != nil {
			sm.oracle.recordAccess(w, in, req)
		}
		if start < sm.smemFree {
			start = sm.smemFree
		}
		svc, conflicts := sm.smemServiceFast(req)
		sm.m.SmemConflictCycles += int64(conflicts)
		serviceEnd = start + int64(svc)
		sm.smemFree = serviceEnd
		sm.dispQ = append(sm.dispQ, start)
		dataAt = serviceEnd + sm.smemLat
		if err := sm.moveShared(w, in, req); err != nil {
			return err
		}
	} else {
		if req.op == sass.OpLDG {
			sm.m.LDGCount++
		} else {
			sm.m.STGCount++
		}
		if start < sm.globFree {
			start = sm.globFree
		}
		// Service cost scales with the 128-byte lines touched: the
		// L1/tag path moves one line per cycle; an uncoalesced access
		// pays per line.
		lines := sm.distinctLines(req)
		svc := int64(len(lines))
		if svc < int64(sm.dev.LDGServiceCycles) {
			svc = int64(sm.dev.LDGServiceCycles)
		}
		serviceEnd = start + svc
		sm.globFree = serviceEnd
		sm.dispQ = append(sm.dispQ, start)
		dataAt = serviceEnd + int64(sm.dev.L2LatencyCycles)
		if req.load {
			// Timing: probe the L2 model per 128-byte line.
			for _, ln := range lines {
				if sm.l2.access(ln * l2Line) {
					sm.m.L2Hits++
					continue
				}
				sm.m.L2Misses++
				t := serviceEnd
				if sm.dramFree > t {
					t = sm.dramFree
				}
				sm.dramFree = t + int64(sm.bwCycles)
				ret := sm.dramFree + int64(sm.dev.DRAMLatencyCycles-sm.dev.L2LatencyCycles)
				if ret > dataAt {
					dataAt = ret
				}
			}
		}
		if err := sm.moveGlobal(w, in, req); err != nil {
			return err
		}
		// Loads hold an MSHR until the data returns.
		if req.load {
			sm.globQ = append(sm.globQ, dataAt)
			if sm.prof != nil {
				sm.prof.noteLDG(sm.now, dataAt)
			}
		}
	}

	if in.Ctrl.WriteBar >= 0 {
		w.barInc(in.Ctrl.WriteBar)
		sm.addEvent(event{at: dataAt, kind: evBarRelease, warp: w, bar: in.Ctrl.WriteBar})
		if sm.hazard && req.load {
			for _, r := range mi.dstRegs {
				w.regBar[r] = in.Ctrl.WriteBar
				w.barRegs[in.Ctrl.WriteBar] = append(w.barRegs[in.Ctrl.WriteBar], r)
			}
		}
	} else if req.load && sm.hazard {
		sm.violation(w, in, "load without a write barrier")
	}
	if in.Ctrl.ReadBar >= 0 {
		w.barInc(in.Ctrl.ReadBar)
		sm.addEvent(event{at: serviceEnd, kind: evBarRelease, warp: w, bar: in.Ctrl.ReadBar})
	}
	return nil
}

// distinctLines lists the 128-byte line indices a global access touches,
// in ascending order. The returned slice aliases the SM's scratch buffer
// and is valid until the next call.
func (sm *smSim) distinctLines(req *memRequest) []uint32 {
	lines := sm.lineScratch[:0]
	for l := 0; l < warpSize; l++ {
		if !req.active[l] {
			continue
		}
		for b := 0; b < int(req.width); b += 4 {
			ln := (req.addrs[l] + uint32(b)) / l2Line
			dup := false
			for _, e := range lines {
				if e == ln {
					dup = true
					break
				}
			}
			if !dup {
				lines = append(lines, ln)
			}
		}
	}
	// Insertion sort: the slice is small (usually a handful of lines)
	// and values are distinct, so this matches sort.Slice without the
	// interface allocation.
	for i := 1; i < len(lines); i++ {
		v := lines[i]
		j := i - 1
		for j >= 0 && lines[j] > v {
			lines[j+1] = lines[j]
			j--
		}
		lines[j+1] = v
	}
	sm.lineScratch = lines
	return lines
}

func (sm *smSim) moveShared(w *warp, in *sass.Inst, req *memRequest) error {
	words := in.Width.Regs()
	if in.Width == sass.W128 && in.Rd != sass.RZ && req.load && int(in.Rd)%4 != 0 {
		return fmt.Errorf("LDS.128 destination %s is not a 128-bit aligned vector register (pc %d)", in.Rd, w.pc-1)
	}
	smem := w.block.smem
	smemWords := len(smem)
	widthMask := uint32(in.Width - 1)
	// Validate every lane first, then move data register-row by
	// register-row: the row pointer and RZ check hoist out of the lane
	// loop, which the per-lane writeReg path paid per word.
	for l := 0; l < warpSize; l++ {
		if !req.active[l] {
			continue
		}
		addr := req.addrs[l]
		if addr&widthMask != 0 {
			err := checkAligned(addr, int(in.Width))
			if sm.oracle != nil {
				sm.oracle.noteBounds(w, w.pc-1, fmt.Sprintf("%v (lane %d)", err, l))
			}
			return fmt.Errorf("%w (pc %d, lane %d)", err, w.pc-1, l)
		}
		if int(addr/4)+words > smemWords {
			if sm.oracle != nil {
				sm.oracle.noteBounds(w, w.pc-1, fmt.Sprintf("access at 0x%x+%dB out of the %d B of shared memory (lane %d)",
					addr, words*4, sm.kern.SmemBytes, l))
			}
			return fmt.Errorf("shared-memory access at 0x%x+%dB out of bounds (%d B allocated, pc %d)",
				addr, words*4, sm.kern.SmemBytes, w.pc-1)
		}
	}
	for j := 0; j < words; j++ {
		if req.load {
			r := in.Rd + sass.Reg(j)
			if r == sass.RZ {
				continue
			}
			row := &w.regs[r]
			for l := 0; l < warpSize; l++ {
				if req.active[l] {
					row[l] = smem[req.addrs[l]/4+uint32(j)]
				}
			}
		} else {
			row := w.srcPtr(in.Rs2 + sass.Reg(j))
			for l := 0; l < warpSize; l++ {
				if req.active[l] {
					smem[req.addrs[l]/4+uint32(j)] = row[l]
				}
			}
		}
	}
	return nil
}

func (sm *smSim) moveGlobal(w *warp, in *sass.Inst, req *memRequest) error {
	words := in.Width.Regs()
	for l := 0; l < warpSize; l++ {
		if !req.active[l] {
			continue
		}
		addr := req.addrs[l]
		if err := checkAligned(addr, int(in.Width)); err != nil {
			return fmt.Errorf("%w (pc %d, lane %d)", err, w.pc-1, l)
		}
		for j := 0; j < words; j++ {
			a := addr + uint32(j*4)
			if req.load {
				w.writeReg(in.Rd+sass.Reg(j), l, sm.gmem.load(a))
			} else {
				if sm.memLimit > 0 && int(a/4) >= sm.memLimit {
					return fmt.Errorf("sharded store at 0x%x beyond the %d-word allocation watermark (pc %d, lane %d)",
						a, sm.memLimit, w.pc-1, l)
				}
				sm.gmem.store(a, w.readReg(in.Rs2+sass.Reg(j), l))
			}
		}
	}
	return nil
}

// regBankConflict applies the paper's footnote-6 rule: a conflict occurs
// when all three live source-register reads fall in the same 64-bit bank
// (odd or even index). Operands served by the reuse cache do not read the
// register file.
func (sm *smSim) regBankConflict(w *warp, in *sass.Inst) bool {
	slots := [3]sass.Reg{in.Rs0, sass.RZ, in.Rs2}
	if in.SrcMode == sass.SrcReg {
		slots[1] = in.Rs1
	}
	var live [3]sass.Reg
	nLive := 0
	for s, r := range slots {
		if r == sass.RZ {
			continue
		}
		if w.reuseValid && w.reuseMask&(1<<uint(s)) != 0 && w.reuseRegs[s] == r {
			continue // served from the operand reuse cache
		}
		dup := false
		for _, e := range live[:nLive] {
			if e == r {
				dup = true
				break
			}
		}
		if !dup {
			live[nLive] = r
			nLive++
		}
	}
	if nLive < 3 {
		return false
	}
	parity := live[0] & 1
	for _, r := range live[1:nLive] {
		if r&1 != parity {
			return false
		}
	}
	return true
}

// noteFixedWrite records result latency for the hazard checker.
func (sm *smSim) noteFixedWrite(w *warp, mi *instMeta, latency int64) {
	if !sm.hazard {
		return
	}
	for _, r := range mi.dstRegs {
		w.regReadyAt[r] = sm.now + latency
	}
}

// checkHazards flags reads of registers whose producer has not completed.
func (sm *smSim) checkHazards(w *warp, in *sass.Inst, mi *instMeta) {
	check := func(r sass.Reg, kind string) {
		if r == sass.RZ {
			return
		}
		if b := w.regBar[r]; b >= 0 && w.barPending[b] > 0 {
			sm.violation(w, in, fmt.Sprintf("%s of %s before barrier %d release", kind, r, b))
			return
		}
		if kind == "read" && sm.now < w.regReadyAt[r] {
			sm.violation(w, in, fmt.Sprintf("read of %s %d cycles early (stall too small)", r, w.regReadyAt[r]-sm.now))
		}
	}
	for _, r := range mi.srcRegs {
		check(r, "read")
	}
	for _, r := range mi.dstRegs {
		check(r, "overwrite")
	}
}

func (sm *smSim) violation(w *warp, in *sass.Inst, msg string) {
	if len(sm.m.HazardViolations) >= maxViolations {
		return
	}
	sm.m.HazardViolations = append(sm.m.HazardViolations,
		fmt.Sprintf("cycle %d block %d warp %d pc %d (%s): %s",
			sm.now, w.block.blockIdx, w.idx, w.pc-1, in.Op, msg))
}
