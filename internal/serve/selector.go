package serve

import (
	"strings"
	"sync"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/tune"
)

// Selector chooses the algorithm for one batch shape. Implementations
// must be safe for concurrent use: every device dispatcher and the load
// generator's sampled executions call Choose.
type Selector interface {
	Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error)
}

// FixedSelector always returns one Choice — the test stub.
type FixedSelector tune.Choice

// Choose implements Selector.
func (f FixedSelector) Choose(gpu.Device, kernels.Problem) (tune.Choice, error) {
	return tune.Choice(f), nil
}

// TuneSelector is the warm algorithm chooser: tune.Select over a
// tune.Cache seeded from the content-addressed experiment store. A
// shape whose fused time is not cached is a cold miss — when a Measure
// hook is configured the miss is measured exactly once per shape (the
// caching singleflight deduplicates concurrent dispatchers asking for
// the same shape); without a hook, tune.Select's analytic-model
// fallback stands in, so a cold server still serves.
type TuneSelector struct {
	// Measure fills one cold fused measurement (e.g. a simulator run).
	// The returned entry must carry Device == dev.Name,
	// Problem == p.Key(), and Waves == the selector's waves to be
	// visible to the selection. Nil = analytic fallback only.
	Measure func(dev gpu.Device, p kernels.Problem) (tune.Entry, error)

	waves  int
	mu     sync.Mutex // guards cache (tune.Cache is not concurrency-safe)
	cache  *tune.Cache
	flight sched.Flight[tune.Choice]
}

// NewTuneSelector returns a cold selector choosing at the given
// sampling depth (waves <= 0 means the tuner's default, 4 — store
// entries written by `winograd-bench tune` use that depth, so a warmed
// selector must match it to see them).
func NewTuneSelector(waves int) *TuneSelector {
	if waves <= 0 {
		waves = 4
	}
	return &TuneSelector{waves: waves, cache: tune.NewCache()}
}

// Warm inserts one tuning measurement.
func (t *TuneSelector) Warm(e tune.Entry) {
	t.mu.Lock()
	t.cache.Put(e)
	t.mu.Unlock()
}

// WarmFromStore imports every tune-mode entry of a content-addressed
// experiment store into the selection cache, returning how many entries
// warmed and a warning per entry that failed its round-trip checks
// (warnings are skips, not failures — a bad entry degrades to a cold
// shape). verify forces the full key round-trip on every entry.
func (t *TuneSelector) WarmFromStore(st *store.Store, verify bool) (int, []string) {
	n := 0
	var warns []string
	for _, se := range st.Entries() {
		if !strings.HasPrefix(se.Key.Mode, "tune/") {
			continue
		}
		e, err := tune.EntryFromStore(se, 0, verify)
		if err != nil {
			warns = append(warns, err.Error())
			continue
		}
		t.Warm(e)
		n++
	}
	return n, warns
}

// Cached reports how many fused measurements the selection cache holds.
func (t *TuneSelector) Cached() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cache.Entries)
}

// ChooseCounts returns, per shape key, how often the underlying choice
// (and so any cold-miss Measure) actually computed — the singleflight
// observable: every count is 1 however many dispatchers asked.
func (t *TuneSelector) ChooseCounts() map[string]int { return t.flight.ComputeCounts() }

// Choose implements Selector: one computation per (device, shape),
// concurrent callers coalesced by the singleflight, results cached for
// the server's lifetime (tuning verdicts don't change mid-run).
func (t *TuneSelector) Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error) {
	key := dev.Name + "|" + p.Key()
	return t.flight.Do(key, func() (tune.Choice, error) {
		t.mu.Lock()
		_, hit := tune.BestFused(t.cache, dev, p, t.waves)
		t.mu.Unlock()
		if !hit && t.Measure != nil {
			e, err := t.Measure(dev, p)
			if err != nil {
				return tune.Choice{}, err
			}
			t.Warm(e)
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		return tune.Select(t.cache, dev, p, t.waves), nil
	})
}
