package tune

import (
	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/model"
)

// Algorithm names a convolution implementation the chooser can return,
// mirroring the cuDNN algorithm enum the paper compares against.
type Algorithm string

const (
	// AlgoFused is the paper's fused F(2x2,3x3) Winograd kernel, run
	// with the tuned (or default) kernels.Config.
	AlgoFused Algorithm = "FUSED_WINOGRAD"
	// AlgoGEMM is implicit precomputed-index GEMM, the strongest GEMM
	// variant in the paper's Figure 12-13 comparison.
	AlgoGEMM Algorithm = "IMPLICIT_PRECOMP_GEMM"
	// AlgoNonfused is the non-fused F(4x4,3x3) implementation that
	// overtakes the fused kernel past the Section 8.1 break-even K.
	AlgoNonfused Algorithm = "WINOGRAD_NONFUSED"
)

// Choice is the chooser's verdict for one (device, problem): which
// algorithm to run, with which fused configuration, and the predicted
// seconds of every contender so callers can see the margin.
type Choice struct {
	Algo   Algorithm
	Config kernels.Config // the fused kernel's tuned config (valid whatever Algo wins)
	// Predicted seconds per contender; Seconds repeats the winner's.
	Seconds         float64
	FusedSeconds    float64
	GEMMSeconds     float64
	NonfusedSeconds float64
	// Source is "simulated" when the fused time came from a cache entry,
	// "model" when no measurement existed and the Section 8.1 analytic
	// fused model stood in.
	Source string
}

// bestFused returns the fastest cached fused measurement for the
// problem, ties broken by config key so the result is deterministic.
func bestFused(cache *Cache, dev gpu.Device, p kernels.Problem, waves int) (Entry, bool) {
	var best Entry
	found := false
	for _, e := range cache.Entries {
		if e.Device != dev.Name || e.Problem != p.Key() || e.Waves != waves {
			continue
		}
		if !found || e.Seconds < best.Seconds ||
			(e.Seconds == best.Seconds && e.ConfigKey < best.ConfigKey) {
			best, found = e, true
		}
	}
	return best, found
}

// Select is the per-layer algorithm chooser: the tuned fused kernel's
// simulated time (falling back to the analytic fused model on a cold
// cache) against the analytic GEMM and non-fused Winograd models, the
// smallest predicted time winning. Ties go to the fused kernel. This
// mirrors cuDNN's chooser shape: Conv2-4 pick the fused kernel, large-K
// small-image Conv5 layers cross the Section 8.1 break-even and fall to
// WINOGRAD_NONFUSED.
func Select(cache *Cache, dev gpu.Device, p kernels.Problem, waves int) Choice {
	s := shapeOf(p)
	ch := Choice{
		GEMMSeconds:     model.Seconds(model.AlgoImplicitPrecompGEMM, s, dev),
		NonfusedSeconds: model.Seconds(model.AlgoWinogradNonfused, s, dev),
	}
	if e, ok := bestFused(cache, dev, p, waves); ok {
		ch.FusedSeconds = e.Seconds
		ch.Config = e.Config
		ch.Source = "simulated"
	} else {
		ch.FusedSeconds = model.FusedSeconds(s, dev)
		ch.Config = kernels.Ours().Canonical()
		ch.Source = "model"
	}
	ch.Algo, ch.Seconds = AlgoFused, ch.FusedSeconds
	if ch.GEMMSeconds < ch.Seconds {
		ch.Algo, ch.Seconds = AlgoGEMM, ch.GEMMSeconds
	}
	if ch.NonfusedSeconds < ch.Seconds {
		ch.Algo, ch.Seconds = AlgoNonfused, ch.NonfusedSeconds
	}
	return ch
}
