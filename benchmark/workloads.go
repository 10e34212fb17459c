package benchmark

import (
	"fmt"
	"syscall"
	"time"
)

// Env is what a workload needs from its invocation.
type Env struct {
	Root    string        // repository root: goldens, and the CLI's source
	Work    string        // scratch directory inside the checkout
	CLI     string        // built winograd-bench binary
	Seed    int64         // input seed
	Seconds time.Duration // how long a workload keeps starting operations
	CPUs    int           // GOMAXPROCS here and in children; -jobs for the CLI
	Smoke   bool          // one set-up and a one-second traced light phase, for tests
}

// Metric is one measured quantity with its unit.
type Metric struct {
	Unit string `json:"unit"`
	Summary
}

// Result is one workload's outcome in one run.
type Result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"` // the first few failures
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"` // diagnostics that carry no bound
}

func newResult(name string) *Result {
	return &Result{Workload: name, Metrics: map[string]Metric{}}
}

func (r *Result) put(name, unit string, values []float64) {
	if len(values) > 0 {
		r.Metrics[name] = Metric{Unit: unit, Summary: Summarize(values)}
	}
}

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records one failed operation.
func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// noteTail records the highest percentile the sample supports, with the
// sample count.
func (r *Result) noteTail(name string, values []float64) {
	if p, v, ok := Tail(values); ok {
		r.note("%s: p%g %.3f (n=%d)", name, p, v, len(values))
	} else {
		r.note("%s: n=%d, too few samples for a tail percentile", name, len(values))
	}
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	Why  string
	CLI  bool // drives the winograd-bench binary
	run  func(*Env) (*Result, error)
}

// Workloads lists every workload, in the order `-workload all` runs
// them. Each one repeats one short operation, so that latency_ms, the
// median operation time, means one thing per workload and a run holds
// enough operations for a steady median.
var Workloads = []Workload{
	{Name: "serve-light", Why: "open-loop Poisson HTTP traffic light enough that every request rides alone in a padded N=32 batch: cudart.Forward's fused path sets latency", run: runServeLight},
	{Name: "serve-burst", Why: "open-loop bursts of 64 requests at 1000 req/s through Server.Submit: a backlog forms at once, so the coalescer's batch cutting sets request latency", run: runServeBurst},
	{Name: "tune-warm", CLI: true, Why: "winograd-bench tune as a cold process on the full committed store: pruning, kernel hashing and store reads and writes, zero simulations", run: runTuneWarm},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Run runs the workload and returns its result.
func (w Workload) Run(env *Env) (*Result, error) { return w.run(env) }

// Serve workload sizes. The light rate keeps the server mostly idle, so
// the median request measures one padded batch, not a queue; the burst
// rate is far above what the seed's coalescer drains (about 85 req/s).
const (
	lightRate   = 25.0
	burstRate   = 1000.0
	burstN      = 64
	serveSetups = 5
	cliSetups   = 31
)

func (env *Env) reps(n int) int {
	if env.Smoke {
		return 1
	}
	return n
}

// repeat runs op until the next run, expected to take as long as the
// last, would end after env.Seconds. It always runs op at least once.
func (env *Env) repeat(op func() (time.Duration, error)) error {
	start := time.Now()
	for {
		d, err := op()
		if err != nil {
			return err
		}
		if time.Since(start)+d > env.Seconds {
			return nil
		}
	}
}

func runServeLight(env *Env) (*Result, error) {
	res := newResult("serve-light")
	rig := newServeRig(nil)
	srv, setup, err := rig.setups(env.reps(serveSetups))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	load := NewLoad(env.Seed, PoissonArrivals(env.Seed, lightRate, env.Seconds), serveShares, rig.inLens())
	if load.Len() == 0 {
		return nil, fmt.Errorf("serve-light: %v at %g req/s schedules no request", env.Seconds, lightRate)
	}
	p := rig.run(srv, load, true)
	rig.check(p, res)
	lat := p.latencies()
	res.put("latency_ms", "ms", lat)
	res.put("setup_s", "s", setup)
	res.put("peak_rss_mb", "MB", []float64{selfPeakRSSMB()})
	res.noteTail("latency_ms", lat)
	res.noteTail("loadgen.late_ms", p.lateness())
	return res, nil
}

func runServeBurst(env *Env) (*Result, error) {
	res := newResult("serve-burst")
	rig := newServeRig(nil)
	srv, setup, err := rig.setups(env.reps(serveSetups))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	load := NewLoad(env.Seed, FixedArrivals(burstN, burstRate), serveShares, rig.inLens())
	var lat, drain []float64
	_ = env.repeat(func() (time.Duration, error) {
		t0 := time.Now()
		p := rig.run(srv, load, false)
		rig.check(p, res)
		lat = append(lat, p.latencies()...)
		drain = append(drain, millis(p.wall()))
		return time.Since(t0), nil
	})
	res.put("latency_ms", "ms", lat)
	res.put("setup_s", "s", setup)
	res.put("peak_rss_mb", "MB", []float64{selfPeakRSSMB()})
	res.put("drain_ms", "ms", drain)
	res.noteTail("latency_ms", lat)
	med := Summarize(drain).Median
	res.note("burst_rps: %.1f (%d requests per burst, %d bursts)", burstN/(med/1000), burstN, len(drain))
	return res, nil
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
