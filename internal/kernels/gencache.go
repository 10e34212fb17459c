package kernels

import (
	"strconv"

	"repro/internal/cubin"
	"repro/internal/sched"
)

// Generation cache. Emitting and assembling a fused main kernel is pure
// CPU work that depends only on (Config, Problem, mainLoopOnly), yet the
// sequential harness used to redo it for every sampled simulation — once
// per sampled wave configuration, per experiment. The cache computes
// each distinct kernel exactly once and is safe for concurrent use: it is
// a sched.Flight, so the first caller of a key generates while later
// callers of the same key wait on its entry, and no kernel is ever
// assembled twice even under a concurrent job runner.
//
// Cached kernels are shared across callers and goroutines; callers must
// treat the returned *cubin.Kernel as read-only (the simulator does:
// Launch decodes the code into a fresh instruction slice per launch).
// Entries are never evicted — the key space is bounded by the sweep's
// distinct (config, problem) pairs, a few hundred small kernels at most.
// An entry holds the encoded kernel alone: its source text is emitted
// into a recycled buffer (pooledEmitter) and is dead once assembled,
// since turingas copies the kernel name out of it.
var genCache sched.Flight[*cubin.Kernel]

// Generate returns the fused Winograd kernel for one problem shape (the
// generator specializes all strides as immediates, as the paper's
// inline-Python TuringAs templates do). When mainLoopOnly is set the
// kernel exits right after the main loop — the configuration used to
// measure main-loop throughput (Figures 7-9) and main-loop SOL.
//
// Results are memoized per canonical (Config.Key, Problem.Key,
// mainLoopOnly) key; the returned kernel is shared and must be treated
// as read-only. Generate is safe for concurrent use.
func Generate(cfg Config, p Problem, mainLoopOnly bool) (*cubin.Kernel, error) {
	return generateKeyed(mainKey(cfg, p, mainLoopOnly), cfg, p, mainLoopOnly)
}

// mainKey is the generation key of a fused main kernel, shared by the
// kernel cache and SourceHash's hash cache.
func mainKey(cfg Config, p Problem, mainLoopOnly bool) string {
	var buf [128]byte
	b := cfg.appendKey(append(buf[:0], "main|"...))
	b = p.appendKey(append(b, '|'))
	return string(strconv.AppendBool(append(b, "|loop"...), mainLoopOnly))
}

// generateKeyed is Generate for a caller that already holds the key.
func generateKeyed(key string, cfg Config, p Problem, mainLoopOnly bool) (*cubin.Kernel, error) {
	return genCache.Do(key, func() (*cubin.Kernel, error) { return generate(cfg, p, mainLoopOnly) })
}

// GenerateFTF returns the filter-transform kernel for K output channels
// (see generateFTF for the kernel itself). Results are memoized per K;
// the returned kernel is shared and must be treated as read-only.
// GenerateFTF is safe for concurrent use.
func GenerateFTF(k int) (*cubin.Kernel, error) {
	return genCache.Do("ftf|k"+strconv.Itoa(k), func() (*cubin.Kernel, error) { return generateFTF(k) })
}
