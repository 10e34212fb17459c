package tune

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/store"
)

// Case is one tuned problem: a ResNet layer/batch tag and its shape.
type Case struct {
	Tag string
	P   kernels.Problem
}

// SweepCases returns the tuned problem sweep: the full layer × batch
// grid, or in quick mode one compute-bound and one DRAM-bound
// representative (Conv2N32 and Conv5N32) — the pair that exercises both
// regimes of the Section 6 heuristics at smoke-test cost.
func SweepCases(quick bool) []Case {
	layers := bench.Layers()
	if quick {
		return []Case{
			{Tag: layers[0].Tag(32), P: layers[0].Problem(32)},
			{Tag: layers[3].Tag(32), P: layers[3].Problem(32)},
		}
	}
	var out []Case
	for _, l := range layers {
		for _, n := range bench.Batches() {
			out = append(out, Case{Tag: l.Tag(n), P: l.Problem(n)})
		}
	}
	return out
}

// Result is the tuning outcome for one case: every measured candidate
// (fastest first), the winner, the paper default as the anchor, the
// pruning accounting, and the per-layer algorithm choice built on top.
type Result struct {
	Case       Case
	Candidates []Entry
	Best       Entry
	Default    Entry
	Choice     Choice
	Stats      PruneStats
	Simulated  int // cache misses simulated for this case in this run
}

// Tuner drives the search of DefaultSpace: static pruning per case,
// store keys for every survivor, then all surviving store misses
// through one bench.Runner job graph (deduplicated across cases and
// parallel across Workers), then results read back from the in-memory
// working set so cold and warm runs render identically. The persistent
// layer is the content-addressed experiment store: hits are
// measurements whose kernel source and device spec still hash to the
// stored key, so stale results miss instead of being served, and a hit
// whose payload measures anything but the candidate looked up is
// quarantined and re-simulated.
type Tuner struct {
	Dev    gpu.Device
	Budget int // max simulated candidates per case (default 12, anchor included)
	Waves  int // sampling depth (default 4, matching bench)
	// Workers bounds concurrent simulations and store-key derivations
	// (GOMAXPROCS when <= 0).
	Workers int
	// Shard restricts the run to a deterministic partition of the pruned
	// candidate lattice (see Shard.Owns). When sharded (Count > 1) Tune
	// fills the store with the shard's measurements and returns nil
	// results: tables need the whole lattice, which only the merged
	// store has.
	Shard Shard
	// Warnf, when set, receives quarantine warnings for store entries
	// that fail validation (the entry is skipped and re-simulated, the
	// run never fails on corrupt data — tune's cold-cache policy).
	Warnf func(format string, args ...any)
}

func (t *Tuner) budget() int {
	if t.Budget <= 0 {
		return 12
	}
	return t.Budget
}

func (t *Tuner) waves() int {
	if t.Waves <= 0 {
		return 4
	}
	return t.Waves
}

func (t *Tuner) warnf(format string, args ...any) {
	if t.Warnf != nil {
		t.Warnf(format, args...)
	}
}

// Tune searches every case, filling the store with any measurements it
// is missing, and returns one Result per case in the given order. The
// returned tables are a pure function of the final measurements: a warm
// store yields the same results with zero simulations, and a kernel or
// device-spec change invalidates warm entries by a key miss. When the
// Tuner is sharded, Tune measures only its partition of the lattice and
// returns nil results (the partial store is the product).
func (t *Tuner) Tune(st *store.Store, cases []Case) ([]Result, *bench.RunStats, error) {
	cache := NewCache() // per-run working set, filled from store hits and fresh samples

	// Static pruning, then the store key of every surviving (case,
	// candidate) pair. A key hashes the assembled kernel, so deriving
	// them is the whole cost of a warm run. A pool of workers derives
	// them while this goroutine enumerates and prunes (the generation
	// cache is concurrency-safe). It is fed each case's paper default
	// first: StaticPrune ranks the default first whenever it survives,
	// and its kernel, a worker's first, is the costliest to assemble.
	// Each case's other survivors follow as soon as the case is pruned.
	// The plan loop below stays serial and reads the keys in case and
	// rank order, so the lowest-index error wins, as in a serial loop.
	type plan struct {
		c      Case
		mine   []kernels.Config     // shard-owned survivors of static pruning
		misses []kernels.Config     // shard-owned, not in the store, lint-clean
		keys   map[string]store.Key // store key per config key, for mine
		stats  PruneStats
	}
	space := DefaultSpace()
	keys := t.startKeys(cases, len(cases)*(1+min(t.budget(), space.points())))
	def := kernels.Ours().Canonical()
	defs := make([]*keyJob, len(cases))
	for i := range cases {
		defs[i] = keys.derive(i, def)
	}
	cands := space.Enumerate()
	plans := make([]plan, len(cases))
	var kept []*keyJob
	for i, cs := range cases {
		pl := &plans[i]
		pl.c, pl.keys = cs, map[string]store.Key{}
		pl.stats.Enumerated = len(cands)
		for _, cfg := range StaticPrune(t.Dev, cs.P, cands, t.budget(), &pl.stats) {
			k := defs[i]
			if cfg != def {
				k = keys.derive(i, cfg)
			}
			kept = append(kept, k)
		}
	}
	keys.wait()
	for _, k := range kept {
		if k.err != nil {
			return nil, nil, fmt.Errorf("tune: %s: %w", cases[k.ci].Tag, k.err)
		}
	}

	for _, k := range kept {
		if !t.Shard.Owns(k.key) {
			continue
		}
		pl := &plans[k.ci]
		pl.mine = append(pl.mine, k.cfg)
		pl.keys[k.cfg.Key()] = k.key
		if se, ok := st.Get(k.key); ok {
			e, err := EntryForKey(se, t.Dev.Name, cases[k.ci].P, t.waves(), k.cfg)
			if err != nil {
				t.warnf("%v (quarantined, re-simulating)", err)
			} else {
				cache.Put(e)
				continue
			}
		}
		pl.misses = append(pl.misses, k.cfg)
	}
	var jobs []bench.Job
	for i := range plans {
		pl := &plans[i]
		linted, err := LintPrune(pl.c.P, pl.misses, &pl.stats)
		if err != nil {
			return nil, nil, fmt.Errorf("tune: %s: %w", pl.c.Tag, err)
		}
		pl.misses = linted
		for _, cfg := range linted {
			jobs = append(jobs, bench.Job{Dev: t.Dev, Cfg: cfg, P: pl.c.P})
		}
	}

	// One synthetic experiment carries the union of missing jobs through
	// the bench Runner: cross-case duplicates simulate once, workers fan
	// out, and numerics are identical for any worker count.
	ctx := &bench.Ctx{Waves: t.waves(), Profile: true}
	exp := bench.Experiment{
		ID:    "tune",
		Title: "autotuner candidate sweep",
		Jobs:  func(*bench.Ctx) []bench.Job { return jobs },
		Run:   func(*bench.Ctx) (*bench.Table, error) { return &bench.Table{ID: "tune"}, nil },
	}
	_, stats, err := (&bench.Runner{Ctx: ctx, Workers: t.Workers}).Run([]bench.Experiment{exp})
	if err != nil {
		return nil, stats, err
	}

	// Read the warm samples back and persist them to the store.
	for _, pl := range plans {
		for _, cfg := range pl.misses {
			s, err := ctx.KernelSample(t.Dev, cfg, pl.c.P, false)
			if err != nil {
				return nil, stats, err
			}
			e := t.entryFrom(pl.c.P, cfg, s)
			cache.Put(e)
			if err := st.Put(pl.keys[cfg.Key()], e); err != nil {
				return nil, stats, err
			}
		}
	}

	// A shard's product is the partial store, not tables: rendering
	// needs the whole lattice, which only the merged store has.
	if t.Shard.enabled() {
		var results []Result
		for _, pl := range plans {
			results = append(results, Result{Case: pl.c, Stats: pl.stats, Simulated: len(pl.misses)})
		}
		return results, stats, nil
	}

	// Results come from the working set alone.
	results := make([]Result, 0, len(plans))
	for _, pl := range plans {
		r := Result{Case: pl.c, Stats: pl.stats, Simulated: len(pl.misses)}
		for _, cfg := range pl.mine {
			if e, ok := cache.Get(t.Dev.Name, pl.c.P, t.waves(), cfg.Key()); ok {
				r.Candidates = append(r.Candidates, e)
			}
		}
		if len(r.Candidates) == 0 {
			return nil, stats, fmt.Errorf("tune: %s: no candidate survived pruning", pl.c.Tag)
		}
		sort.Slice(r.Candidates, func(i, j int) bool {
			a, b := r.Candidates[i], r.Candidates[j]
			if a.Seconds != b.Seconds {
				return a.Seconds < b.Seconds
			}
			return a.ConfigKey < b.ConfigKey
		})
		r.Best = r.Candidates[0]
		defKey := kernels.Ours().Key()
		for _, e := range r.Candidates {
			if e.ConfigKey == defKey {
				r.Default = e
				break
			}
		}
		if r.Default.ConfigKey == "" {
			// The anchor is force-included by StaticPrune; only a lint
			// rejection of the paper kernel itself could get here.
			return nil, stats, fmt.Errorf("tune: %s: paper default missing from results", pl.c.Tag)
		}
		r.Choice = Select(cache, t.Dev, pl.c.P, t.waves())
		results = append(results, r)
	}
	return results, stats, nil
}

// keyJob is one store-key derivation: the pool fills in key or err.
type keyJob struct {
	ci  int // index into the tuned cases
	cfg kernels.Config
	key store.Key
	err error
}

// keyPool derives store keys on at most Workers goroutines. Its queue
// holds every job the feeder can send, so feeding never waits for a
// derivation.
type keyPool struct {
	jobs chan *keyJob
	wg   sync.WaitGroup
}

// startKeys starts a pool that derives keys for cases and takes at
// most maxJobs jobs.
func (t *Tuner) startKeys(cases []Case, maxJobs int) *keyPool {
	kp := &keyPool{jobs: make(chan *keyJob, maxJobs)}
	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	devHash := t.Dev.SpecHash()
	for w := 0; w < min(workers, maxJobs); w++ {
		kp.wg.Add(1)
		go func() {
			defer kp.wg.Done()
			for k := range kp.jobs {
				k.key, k.err = storeKey(t.Dev.Name, devHash, cases[k.ci].P, t.waves(), k.cfg)
			}
		}()
	}
	return kp
}

// derive queues the key of cfg on case ci; it is readable after wait.
func (kp *keyPool) derive(ci int, cfg kernels.Config) *keyJob {
	k := &keyJob{ci: ci, cfg: cfg}
	kp.jobs <- k
	return k
}

// wait stops the pool once every queued key is derived.
func (kp *keyPool) wait() {
	close(kp.jobs)
	kp.wg.Wait()
}

// entryFrom converts one bench sample into a cache entry.
func (t *Tuner) entryFrom(p kernels.Problem, cfg kernels.Config, s *bench.Sample) Entry {
	cfg = cfg.Canonical()
	e := Entry{
		Device:    t.Dev.Name,
		Problem:   p.Key(),
		Shape:     p,
		Config:    cfg,
		ConfigKey: cfg.Key(),
		Waves:     t.waves(),
		Seconds:   s.Seconds(t.Dev),
		TFLOPS:    s.EffectiveTFLOPS(t.Dev, p),
		Cycles:    s.CyclesPerWave,
		SOL:       s.SOL,
	}
	if s.Prof != nil {
		e.Stalls = stallFractions(s.Prof)
	}
	return e
}

// stallFractions renders a launch profile's warp-cycle attribution as
// per-reason fractions of the resident warp-cycles.
func stallFractions(lp *gpu.LaunchProfile) map[string]float64 {
	resident := lp.TotalWarpCycles()
	if resident == 0 {
		return nil
	}
	tot := lp.WarpStallTotals()
	m := make(map[string]float64)
	for r := gpu.StallReason(0); r < gpu.NumStallReasons; r++ {
		if tot[r] != 0 {
			m[r.String()] = float64(tot[r]) / float64(resident)
		}
	}
	return m
}
