package bench

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/par"
)

// Job identifies one simulation sample: a kernel configuration on a
// problem shape, simulated on a device, in full-kernel or main-loop-only
// form, with strided (cold) or sequential (hot) block sampling. Jobs are
// the scheduling unit of the Runner: experiments declare the jobs they
// need, the Runner simulates the union once.
type Job struct {
	Dev      gpu.Device
	Cfg      kernels.Config
	P        kernels.Problem
	MainOnly bool
	Hot      bool
}

// Key is the canonical cache key for the job at a given sampling depth.
// It is built from kernels.Config.Key / kernels.Problem.Key, so two jobs
// collide exactly when they denote the same simulation.
func (j Job) Key(waves int) string {
	return fmt.Sprintf("%s|%s|%s|main%t|hot%t|waves%d",
		j.Dev.Name, j.Cfg.Key(), j.P.Key(), j.MainOnly, j.Hot, waves)
}

// sweepJobs enumerates the layer/batch sweep (honouring Quick mode) for
// every given config — the request shape shared by most experiments.
func sweepJobs(c *Ctx, dev gpu.Device, cfgs []kernels.Config, mainOnly, hot bool) []Job {
	var jobs []Job
	for _, l := range c.layers() {
		for _, n := range c.batches() {
			for _, cfg := range cfgs {
				jobs = append(jobs, Job{Dev: dev, Cfg: cfg, P: l.Problem(n), MainOnly: mainOnly, Hot: hot})
			}
		}
	}
	return jobs
}

// JobTiming records how long one deduplicated job took to simulate.
type JobTiming struct {
	Key     string
	Elapsed time.Duration
}

// ExperimentResult is one rendered experiment with its render time
// (sample simulation time is accounted to the prefetch phase).
type ExperimentResult struct {
	Experiment Experiment
	Table      *Table
	Elapsed    time.Duration
}

// RunStats describes what the Runner did: how many jobs the experiments
// requested, how many remained after cross-experiment deduplication, and
// the prefetch wall-clock. Requested > Unique means experiments shared
// samples that the sequential harness would have re-simulated.
type RunStats struct {
	Requested int
	Unique    int
	Workers   int
	Prefetch  time.Duration
	Jobs      []JobTiming
}

// Runner schedules the sample jobs of a set of experiments across a
// worker pool, then renders the experiments' tables in the order given.
//
// Scheduling changes, numerics do not: experiments read every sample
// from the shared deduplicated cache, so the rendered tables are
// byte-identical whatever Workers is.
type Runner struct {
	Ctx *Ctx
	// Workers bounds concurrent simulations (GOMAXPROCS when <= 0).
	Workers int
}

func (r *Runner) workers() int {
	if r.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return r.Workers
}

// Run executes the experiments: phase 1 prefetches the deduplicated
// union of their declared jobs concurrently; phase 2 renders each table
// sequentially in the order given (all sample requests hit the warm
// cache). An experiment that requests an undeclared sample still works —
// the cache fills it on demand, serialized into the render phase — it
// just forgoes the parallelism.
func (r *Runner) Run(exps []Experiment) ([]ExperimentResult, *RunStats, error) {
	c := r.Ctx
	stats := &RunStats{Workers: r.workers()}

	// Collect the union of declared jobs, deduplicating by canonical key
	// but preserving first-request order for reproducible scheduling.
	seen := map[string]bool{}
	var jobs []Job
	for _, e := range exps {
		if e.Jobs == nil {
			continue
		}
		for _, j := range e.Jobs(c) {
			stats.Requested++
			key := j.Key(c.waves())
			if seen[key] {
				continue
			}
			seen[key] = true
			jobs = append(jobs, j)
		}
	}
	stats.Unique = len(jobs)

	// Phase 1: simulate every unique job across the worker pool. The
	// lowest-index error wins deterministically; par.ForErr drains the
	// remaining jobs on error.
	stats.Jobs = make([]JobTiming, len(jobs))
	var mu sync.Mutex
	start := time.Now()
	err := par.ForErr(len(jobs), r.workers(), func(i int) error {
		js := time.Now()
		_, serr := c.sample(jobs[i])
		t := JobTiming{Key: jobs[i].Key(c.waves()), Elapsed: time.Since(js)}
		mu.Lock()
		stats.Jobs[i] = t
		mu.Unlock()
		return serr
	})
	stats.Prefetch = time.Since(start)
	if err != nil {
		return nil, stats, err
	}

	// Phase 2: render tables sequentially in the order given.
	results := make([]ExperimentResult, 0, len(exps))
	for _, e := range exps {
		es := time.Now()
		t, err := e.Run(c)
		if err != nil {
			return results, stats, fmt.Errorf("%s: %w", e.ID, err)
		}
		results = append(results, ExperimentResult{Experiment: e, Table: t, Elapsed: time.Since(es)})
	}
	return results, stats, nil
}

// SlowestJobs returns up to n job timings sorted slowest-first.
func (s *RunStats) SlowestJobs(n int) []JobTiming {
	jobs := append([]JobTiming(nil), s.Jobs...)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Elapsed > jobs[j].Elapsed })
	if n < len(jobs) {
		jobs = jobs[:n]
	}
	return jobs
}
