package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/gpu"
	"repro/internal/store"
	"repro/internal/tune"
)

// tuneOpts carries the tune-subcommand flags out of run's flag set.
type tuneOpts struct {
	waves       int
	quick       bool
	markdown    bool
	jobs        int
	budget      int
	storePath   string // content-addressed store/v1 file
	storeVerify bool
	shard       string
	device      string
}

// runTune is the `winograd-bench tune` subcommand: search the scheduling
// knob space per ResNet layer on the simulator, persist measurements to
// the content-addressed experiment store, and print the tuned-vs-default
// report plus the per-layer algorithm selection table. Tables go to
// stdout and are byte-identical for any -jobs value and for cold versus
// warm stores; store warnings and scheduling stats go to stderr.
//
// With -shard i/N the run measures only its deterministic partition of
// the pruned candidate lattice and emits a partial store: no tables
// (they need the whole lattice), just the shard's measurements, such
// that `store merge` over all N partials reproduces the single-process
// store byte for byte.
func runTune(o tuneOpts, stdout, stderr io.Writer) int {
	dev, err := gpu.DeviceByName(o.device)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench tune: %v\n", err)
		return 2
	}
	shard, err := tune.ParseShard(o.shard)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench tune: %v\n", err)
		return 2
	}
	sharded := shard.Count > 1
	if sharded && o.storePath == "" {
		fmt.Fprintln(stderr, "winograd-bench tune: -shard requires -store (the partial store is the shard's product)")
		return 2
	}

	st := store.New()
	if o.storePath != "" {
		var rep *store.LoadReport
		st, rep = store.Load(o.storePath)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
	}

	tuner := &tune.Tuner{Dev: dev, Budget: o.budget, Waves: o.waves, Workers: o.jobs,
		Shard: shard, VerifyStore: o.storeVerify,
		Warnf: func(format string, args ...any) { fmt.Fprintf(stderr, format+"\n", args...) }}
	start := time.Now()
	results, stats, err := tuner.Tune(st, tune.SweepCases(o.quick))
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench tune: %v\n", err)
		return 1
	}

	if !sharded {
		for _, t := range []interface {
			Format() string
			Markdown() string
		}{tune.Report(dev, results), tune.SelectionTable(dev, results)} {
			if o.markdown {
				fmt.Fprintln(stdout, t.Markdown())
			} else {
				fmt.Fprintln(stdout, t.Format())
			}
		}
	}

	if o.storePath != "" {
		if err := st.Save(o.storePath); err != nil {
			fmt.Fprintf(stderr, "winograd-bench tune: saving store: %v\n", err)
			return 1
		}
	}

	simulated := 0
	for _, r := range results {
		simulated += r.Simulated
	}
	shardNote := ""
	if sharded {
		shardNote = fmt.Sprintf(" (shard %d/%d)", shard.Index, shard.Count)
	}
	fmt.Fprintf(stderr, "tuned %d layers on %s%s: %d candidates simulated this run, %d in store, in %v on %d workers\n",
		len(results), dev.Name, shardNote, simulated, st.Len(),
		time.Since(start).Round(time.Millisecond), stats.Workers)
	return 0
}
