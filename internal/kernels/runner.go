package kernels

import (
	"fmt"

	"repro/internal/gpu"
	"repro/internal/tensor"
)

// ConvResult bundles the outputs of a simulated convolution.
type ConvResult struct {
	// Output is the KHWN result tensor (nil when the launch sampled only
	// part of the grid or ran a main-loop-only kernel).
	Output *tensor.Tensor
	// Main and FTF are the launch metrics of the two kernels.
	Main *gpu.Metrics
	FTF  *gpu.Metrics
}

// ConvOpts bundles every option of a simulated convolution run; the zero
// value is a full functional run on the default engine.
type ConvOpts struct {
	// In and Flt are the input (CHWN) and filter (CRSK) tensors; nil
	// leaves device memory zeroed (timing-only runs).
	In, Flt *tensor.Tensor
	// SampleBlocks > 0 simulates only that many main-kernel blocks (a
	// timing sample; no output is returned). 0 runs the whole grid.
	SampleBlocks int
	// MainLoopOnly trims the output transform, matching the paper's
	// "main loop" measurements.
	MainLoopOnly bool
	// HazardCheck enables the control-code validator on both launches.
	HazardCheck bool
	// Hot samples sequential blocks on one SM (maximal L2 reuse) instead
	// of wave sampling; meaningful only with SampleBlocks > 0.
	Hot bool
	// Prof, when non-nil, collects one LaunchProfile per kernel launch.
	Prof *gpu.Profiler
	// Oracle, when non-nil, logs every shared-memory access of both
	// launches for race/bounds checking (see gpu.SmemOracle).
	Oracle *gpu.SmemOracle
	// Backend selects the simulator's per-instruction engine: threaded by
	// default; switch is the differential oracle. Results are identical
	// across backends.
	Backend gpu.Backend
}

// RunConvWith executes the Winograd convolution (filter-transform kernel
// followed by the fused main kernel) on a fresh simulator for dev, and
// returns the output with launch metrics; pad is fixed at 1, stride at 1.
// It is the one conv entry point — every option is a ConvOpts field. It
// is safe for concurrent calls: every invocation allocates its own
// gpu.Sim (device memory, allocator, L2 model) and its own buffers, so
// independent simulations never share mutable state. The generated
// kernels come from the process-wide generation cache and are shared
// read-only (see gencache.go).
//
// Full-grid runs (SampleBlocks == 0) launch Sharded: the whole-device
// simulation is split SM-by-SM across GOMAXPROCS goroutines with
// deterministic merging, which is where the simulator's wall-clock
// speedup on functional runs comes from. Sampled runs keep the
// sequential chained-L2 launch semantics so sampled timings (and the
// golden sweep outputs built on them) are unchanged.
func RunConvWith(dev gpu.Device, cfg Config, p Problem, o ConvOpts) (*ConvResult, error) {
	in, flt := o.In, o.Flt
	sampleBlocks, mainLoopOnly, hazardCheck, hot, prof := o.SampleBlocks, o.MainLoopOnly, o.HazardCheck, o.Hot, o.Prof
	cfg = cfg.withDefaults()
	if err := p.Validate(cfg.BK); err != nil {
		return nil, err
	}
	if in != nil {
		if in.Layout != tensor.CHWN {
			return nil, fmt.Errorf("kernels: input must be CHWN, got %s", in.Layout)
		}
		s := in.ImageShape()
		if s.C != p.C || s.N != p.N || s.H != p.H || s.W != p.W {
			return nil, fmt.Errorf("kernels: input shape %+v does not match problem %+v", s, p)
		}
	}
	if flt != nil {
		if flt.Layout != tensor.CRSK {
			return nil, fmt.Errorf("kernels: filter must be CRSK, got %s", flt.Layout)
		}
		fs := flt.FilterShapeOf()
		if fs.C != p.C || fs.K != p.K {
			return nil, fmt.Errorf("kernels: filter shape %+v does not match problem %+v", fs, p)
		}
	}

	sim := gpu.NewSim(dev)
	sim.HazardCheck = hazardCheck
	sim.Prof = prof
	sim.Oracle = o.Oracle
	sim.Backend = o.Backend
	// Only full functional runs shard: sampled launches keep the
	// sequential chained-L2 semantics their calibrated timings (and the
	// committed golden sweep outputs) were built on.
	sharded := sampleBlocks == 0

	// Device buffers. The input and transformed-filter buffers carry one
	// extra iteration of slack: the software pipeline prefetches one
	// channel block past the end on the final iteration (the loads are
	// dead, but the addresses are formed).
	slackIn := 8 * p.H * p.W * p.N * 4
	slackFlt := 8 * 16 * p.K * 4
	inBuf := sim.Alloc(p.C*p.H*p.W*p.N*4 + slackIn)
	fltBuf := sim.Alloc(p.C * 9 * p.K * 4)
	fhatBuf := sim.Alloc(p.C*16*p.K*4 + slackFlt)
	outBuf := sim.Alloc(p.K * p.H * p.W * p.N * 4)
	if in != nil {
		sim.WriteF32(inBuf.Addr, in.Data)
	}
	if flt != nil {
		sim.WriteF32(fltBuf.Addr, flt.Data)
	}

	res := &ConvResult{}

	// Filter transform.
	ftf, err := GenerateFTF(p.K)
	if err != nil {
		return nil, err
	}
	fb := FTFBlock(p.K)
	res.FTF, err = sim.Launch(ftf, gpu.LaunchOpts{
		Grid: p.K / fb, GridY: p.C, Block: fb,
		Params:  []uint32{fltBuf.Addr, fhatBuf.Addr, uint32(p.K * 4)},
		Sharded: sharded,
	})
	if err != nil {
		return nil, fmt.Errorf("kernels: FTF launch: %w", err)
	}
	if hazardCheck && len(res.FTF.HazardViolations) > 0 {
		return nil, fmt.Errorf("kernels: FTF hazards: %v", res.FTF.HazardViolations)
	}

	// Main kernel.
	main, err := Generate(cfg, p, mainLoopOnly)
	if err != nil {
		return nil, err
	}
	gx, gy, gz := GridFor(cfg, p)
	opts := gpu.LaunchOpts{
		Grid: gx, GridY: gy, GridZ: gz, Block: 256,
		Params:  []uint32{inBuf.Addr, fhatBuf.Addr, outBuf.Addr},
		Sharded: sharded,
	}
	if sampleBlocks > 0 {
		if hot {
			// Sequential blocks on one SM: maximal L2 reuse, the
			// compute-bound steady state of the scheduling studies.
			opts.MaxBlocks = sampleBlocks
			opts.OneSM = true
		} else {
			// Wave sampling: four instances share the L2 and each
			// plays one SM of every device wave, reproducing the
			// concurrent block mix's L2 locality.
			occ, oerr := dev.OccupancyFor(256, main.NumRegs, main.SmemBytes)
			if oerr != nil {
				return nil, oerr
			}
			opts.SampleSMs = 4
			opts.SampleWaves = (sampleBlocks + occ.BlocksPerSM - 1) / occ.BlocksPerSM
		}
	}
	res.Main, err = sim.Launch(main, opts)
	if err != nil {
		return nil, fmt.Errorf("kernels: main launch: %w", err)
	}
	if hazardCheck && len(res.Main.HazardViolations) > 0 {
		return nil, fmt.Errorf("kernels: main kernel hazards: %v", res.Main.HazardViolations)
	}

	if sampleBlocks == 0 && !mainLoopOnly {
		out := tensor.New(tensor.KHWN, p.K, p.H, p.W, p.N)
		out.Data = sim.ReadF32(outBuf.Addr, out.Len())
		res.Output = out
	}
	return res, nil
}
