package gpu

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Backend selects the per-instruction execution engine behind the
// simulator's scheduling model. The scheduler itself (warp selection,
// stall classification, events) and the issue path are one piece of
// code; the backend picks only the function that executes the chosen
// warp's instruction, so both produce
// bit-identical Metrics, memory contents, and profiles. The differential
// tests in internal/kernels enforce that on every quick-sweep
// configuration and on randomized kernels.
type Backend uint8

const (
	// BackendThreaded is the basic-block threaded-code interpreter
	// (threaded.go): per-pc handler chains with all metadata baked at
	// decode time. The default.
	BackendThreaded Backend = iota
	// BackendSwitch runs every instruction through the per-lane
	// reference warp.exec (exec.go) instead of the node's handler. It
	// is the differential oracle for the handlers' fast paths, slower
	// by design.
	BackendSwitch
)

func (b Backend) String() string {
	switch b {
	case BackendThreaded:
		return "threaded"
	case BackendSwitch:
		return "switch"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "threaded", "":
		return BackendThreaded, nil
	case "switch":
		return BackendSwitch, nil
	}
	return 0, fmt.Errorf("gpu: unknown backend %q (want threaded or switch)", s)
}

// simPools is one independent set of the recycling pools an SM instance
// draws from: retired warps (with their operand arrays), shared-memory
// images, block states, the scratch queue buffers, and the reusable
// instance shell itself. The sequential launch path uses the Sim's own
// set; each Sharded worker owns a private set so instances can run
// concurrently without sharing any mutable state.
type simPools struct {
	warpPool  []*warp
	smemPool  [][]uint32
	blockPool []*blockState
	// parked holds warps whose block retired while a dependency-barrier
	// release was still in flight; they rejoin warpPool when the instance
	// finishes (smSim.release) and no event can reference them anymore.
	parked  []*warp
	scratch smScratch
	shell   *smSim
}

// instResult is one Sharded instance's outcome, kept until the
// deterministic in-order merge.
type instResult struct {
	m       Metrics
	now     int64
	nscheds int
	err     error
	coll    *launchCollector
}

// shardWorker is one goroutine's private simulation state: its pool set
// and its L2 clone buffer (re-snapshotted from the launch-entry state
// for every instance it runs). run is the zero-argument spawn closure,
// built once when the worker is created: `go wk.run()` passes no
// arguments, so the steady state spawns goroutines without allocating
// (a `go f(args)` statement heap-allocates an argument record per call).
type shardWorker struct {
	pools simPools
	l2    *l2cache
	run   func()
}

// shardState carries one Sharded launch across its worker pool. It lives
// on the Sim so the steady state allocates nothing; workers only read
// the shared fields (lc, plan, entryL2, prof settings) and write their
// own res[i] slots, claimed through the atomic next counter.
type shardState struct {
	lc      launchCtx
	plan    [][]int
	res     []instResult
	workers []*shardWorker
	entryL2 *l2cache
	l2Final *l2cache
	prof    *Profiler
	kernel  string
	next    atomic.Int64
	wg      sync.WaitGroup
}

// launchSharded runs the launch plan's SM instances on a worker pool.
//
// L2 warm-up semantics: instance 0 runs first, alone, starting from the
// launch-entry L2 state; its exit state becomes the warm template every
// remaining instance starts from. That mirrors what the sequential
// chained-L2 path provides — instance 0 pays the cold compulsory misses
// on shared lines (e.g. the transformed filter) and everyone after it
// finds them resident — while leaving instances 1..n-1 free of data
// dependencies on each other, so they run concurrently.
//
// Determinism contract: the warm template is a pure function of the
// entry state and instance 0, instances 1..n-1 each get a private copy
// of it, results are merged in instance order, and the lowest instance
// index's error wins — so Metrics, profiles, memory contents, and errors
// are identical at any worker count. The device's exit L2 state is the
// final state of the last instance (the sequential analogue of "whatever
// ran last owns the cache").
func (s *Sim) launchSharded(total *Metrics, kernel string, plan [][]int) error {
	st := &s.shard
	st.plan = plan
	st.prof = s.Prof
	st.kernel = kernel
	n := len(plan)

	if cap(st.res) < n {
		st.res = make([]instResult, n)
	}
	st.res = st.res[:n]
	for i := range st.res {
		st.res[i] = instResult{}
	}

	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n-1 {
		workers = n - 1
	}
	if workers < 1 {
		workers = 1
	}
	// Not par.For: these reused workers and their prebuilt run closures keep
	// a warm launch allocation-free (TestShardedSteadyStateAllocs).
	for len(st.workers) < workers {
		wk := &shardWorker{}
		wk.run = func() {
			defer st.wg.Done()
			s.shardLoop(wk)
		}
		st.workers = append(st.workers, wk)
	}

	// Instance 0: runs on the caller's goroutine against a copy of the
	// launch-entry L2; the mutated copy is the warm template.
	if st.entryL2 == nil || st.entryL2.sets != s.l2.sets {
		st.entryL2 = newL2Like(s.l2)
	}
	st.entryL2.copyFrom(s.l2)
	st.l2Final = s.l2
	s.shardRunInstance(st.workers[0], 0, st.entryL2)

	if n > 1 && st.res[0].err == nil {
		// Seed the device cache with the template before any worker can
		// reach the last instance, which mutates it in place.
		s.l2.copyFrom(st.entryL2)
		st.next.Store(1)
		if workers == 1 {
			s.shardLoop(st.workers[0])
		} else {
			st.wg.Add(workers - 1)
			for i := 1; i < workers; i++ {
				go st.workers[i].run()
			}
			s.shardLoop(st.workers[0])
			st.wg.Wait()
		}
	} else if n == 1 && st.res[0].err == nil {
		// Single instance: its exit state is the launch-exit state.
		s.l2.copyFrom(st.entryL2)
	}

	for i := range st.res {
		if err := st.res[i].err; err != nil {
			return fmt.Errorf("gpu: SM %d: %w", i, err)
		}
	}
	var master *launchCollector
	if st.prof != nil {
		master = newLaunchCollector(st.prof, st.kernel, st.lc.prog)
	}
	for i := range st.res {
		r := &st.res[i]
		foldMetrics(total, &r.m, r.now, r.nscheds)
		if master != nil {
			master.merge(r.coll)
		}
		r.coll = nil
		r.m = Metrics{}
	}
	if master != nil {
		st.prof.Launches = append(st.prof.Launches, master.lp)
	}
	return nil
}

// shardLoop claims and runs instances 1..n-1 until the plan is drained.
// Work stealing through the shared counter balances uneven instances;
// results are keyed by instance index, so the claim order cannot affect
// them.
func (s *Sim) shardLoop(wk *shardWorker) {
	st := &s.shard
	n := len(st.plan)
	for {
		i := int(st.next.Add(1)) - 1
		if i >= n {
			return
		}
		var l2 *l2cache
		if i == n-1 {
			l2 = st.l2Final
		} else {
			if wk.l2 == nil || wk.l2.sets != st.entryL2.sets {
				wk.l2 = newL2Like(st.entryL2)
			}
			wk.l2.copyFrom(st.entryL2)
			l2 = wk.l2
		}
		s.shardRunInstance(wk, i, l2)
	}
}

// shardRunInstance simulates one SM instance against the given L2 state
// and records its result slot.
func (s *Sim) shardRunInstance(wk *shardWorker, i int, l2 *l2cache) {
	st := &s.shard
	var coll *launchCollector
	if st.prof != nil {
		coll = newLaunchCollector(st.prof, st.kernel, st.lc.prog)
		coll.beginSM(i)
	}
	inst := st.lc.newInstance(&wk.pools, st.plan[i], l2, coll)
	err := inst.run()
	r := &st.res[i]
	if err != nil {
		r.err = err
	} else {
		if coll != nil {
			coll.endSM(inst.now, len(inst.scheds))
		}
		r.now = inst.now
		r.nscheds = len(inst.scheds)
		r.m = inst.m
	}
	r.coll = coll
	inst.release()
}
