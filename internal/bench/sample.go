package bench

import (
	"math"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sched"
)

// Ctx carries experiment-wide settings and the simulation cache (many
// figures share the same kernel samples).
//
// The cache is safe for concurrent use: the job Runner fans sample
// requests out over a worker pool, and identical requests issued from
// different experiments (or different workers) are deduplicated with the
// shared caching singleflight (sched.Flight) — the first requester
// simulates while later requesters of the same key block on its entry,
// so every distinct sample is simulated exactly once per Ctx.
type Ctx struct {
	// Waves is how many occupancy-waves of blocks to sample per SM; the
	// first wave warms the L2, later waves approximate steady state.
	Waves int
	// Quick restricts experiments to a reduced layer/batch sweep (used
	// by tests and -short benchmarks).
	Quick bool
	// Profile attaches a fresh gpu.Profiler to every simulation, filling
	// Sample.Prof/FTFProf with per-instruction stall attribution. Off by
	// default: table output must stay byte-identical to the goldens, and
	// profiled simulations pay a small accounting overhead.
	Profile bool
	// ProfileTimeline additionally records per-warp interval events and
	// LDG spans (needed for Chrome traces; more memory per sample).
	ProfileTimeline bool
	// Backend selects the simulator's per-instruction engine. Backends
	// are bit-identical by contract, so samples are cached without regard
	// to it. Samples simulate a few waves, never a sharded full grid, so
	// no sharding worker count applies.
	Backend gpu.Backend

	// flight deduplicates and caches samples per job key; its compute
	// counts are the observable the cross-experiment dedup tests and the
	// runner's stats assert on (every value must be 1).
	flight sched.Flight[*Sample]
}

// NewCtx returns a context with default sampling depth.
func NewCtx() *Ctx { return &Ctx{Waves: 4} }

// Sample is one simulated kernel measurement.
type Sample struct {
	CyclesPerWave float64
	FLOPsPerWave  float64
	SOL           float64
	Occ           gpu.Occupancy
	TotalBlocks   int
	Metrics       *gpu.Metrics
	// Prof and FTFProf are the main-kernel and filter-transform launch
	// profiles; nil unless the Ctx has Profile set.
	Prof    *gpu.LaunchProfile
	FTFProf *gpu.LaunchProfile
}

func (c *Ctx) waves() int {
	if c.Waves <= 0 {
		return 4
	}
	return c.Waves
}

// KernelSample simulates `waves` occupancy-waves of the kernel on one SM
// and returns per-wave steady-state numbers. The sampled blocks are
// strided across the grid so the SM sees the L2 locality of the real
// concurrent block mix (right for end-to-end comparisons).
func (c *Ctx) KernelSample(dev gpu.Device, cfg kernels.Config, p kernels.Problem, mainOnly bool) (*Sample, error) {
	return c.sample(Job{Dev: dev, Cfg: cfg, P: p, MainOnly: mainOnly})
}

// KernelSampleHot samples sequential blocks instead: maximal L2 reuse,
// the compute-bound steady state the paper's main-loop scheduling studies
// (Figures 7-9) measure.
func (c *Ctx) KernelSampleHot(dev gpu.Device, cfg kernels.Config, p kernels.Problem, mainOnly bool) (*Sample, error) {
	return c.sample(Job{Dev: dev, Cfg: cfg, P: p, MainOnly: mainOnly, Hot: true})
}

// sample returns the cached sample for j, simulating it at most once per
// Ctx (concurrent requests for one key share a single simulation via the
// caching singleflight).
func (c *Ctx) sample(j Job) (*Sample, error) {
	return c.flight.Do(j.Key(c.waves()), func() (*Sample, error) {
		return c.simulate(j)
	})
}

// simulate runs one sample job on a fresh simulator instance.
func (c *Ctx) simulate(j Job) (*Sample, error) {
	k, err := kernels.Generate(j.Cfg, j.P, j.MainOnly)
	if err != nil {
		return nil, err
	}
	occ, err := j.Dev.OccupancyFor(256, k.NumRegs, k.SmemBytes)
	if err != nil {
		return nil, err
	}
	// A per-call profiler keeps concurrent simulations race-free; its
	// two launch profiles (FTF then main) land on the sample.
	var prof *gpu.Profiler
	if c.Profile {
		prof = gpu.NewProfiler()
		prof.Timeline = c.ProfileTimeline
	}
	res, err := kernels.RunConvWith(j.Dev, j.Cfg, j.P, kernels.ConvOpts{
		SampleBlocks: occ.BlocksPerSM * c.waves(),
		MainLoopOnly: j.MainOnly, Hot: j.Hot, Prof: prof,
		Backend: c.Backend,
	})
	if err != nil {
		return nil, err
	}
	gx, gy, gz := kernels.GridFor(j.Cfg, j.P)
	s := &Sample{
		CyclesPerWave: float64(res.Main.Cycles) / float64(c.waves()),
		FLOPsPerWave:  res.Main.FLOPs() / float64(c.waves()) / float64(res.Main.SimSMs),
		SOL:           res.Main.SOL(),
		Occ:           occ,
		TotalBlocks:   gx * gy * gz,
		Metrics:       res.Main,
	}
	if prof != nil && len(prof.Launches) == 2 {
		s.FTFProf, s.Prof = prof.Launches[0], prof.Launches[1]
	}
	return s, nil
}

// Seconds extrapolates a sample to full-device runtime via wave
// quantization: ceil(blocks / (SMs * blocksPerSM)) waves of the sampled
// per-wave cycle count.
func (s *Sample) Seconds(dev gpu.Device) float64 {
	waves := math.Ceil(float64(s.TotalBlocks) / float64(dev.SMs*s.Occ.BlocksPerSM))
	return s.CyclesPerWave * waves / (dev.ClockGHz * 1e9)
}

// DeviceTFLOPS is the achieved whole-device math throughput during the
// sampled steady state (the y-axis of Figures 7-9): every SM sustains the
// sampled per-wave FLOPs over the per-wave cycles.
func (s *Sample) DeviceTFLOPS(dev gpu.Device) float64 {
	perSM := s.FLOPsPerWave / (s.CyclesPerWave / (dev.ClockGHz * 1e9))
	return perSM * float64(dev.SMs) / 1e12
}

// EffectiveTFLOPS is direct-convolution-equivalent throughput for a full
// problem (FLOPs of the direct algorithm over the extrapolated runtime).
func (s *Sample) EffectiveTFLOPS(dev gpu.Device, p kernels.Problem) float64 {
	return p.FLOPs() / s.Seconds(dev) / 1e12
}

// layers and batches honouring Quick mode.
func (c *Ctx) layers() []Layer {
	if c.Quick {
		return Layers()[:1]
	}
	return Layers()
}

func (c *Ctx) batches() []int {
	if c.Quick {
		return Batches()[:1]
	}
	return Batches()
}
