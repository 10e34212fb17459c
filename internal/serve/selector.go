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

// Selector chooses the algorithm for one batch shape on a device.
// Implementations must be safe for concurrent use: the server's
// dispatcher and the load generator's sampled executions, fanned out
// over its Jobs workers, call Choose.
type Selector interface {
	Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error)
}

// TuneSelector is the warm algorithm chooser: tune.Select over a
// tune.Cache seeded from the content-addressed experiment store. A
// shape whose fused time is not cached is a cold miss, and
// tune.Select's analytic-model fallback stands in for it, so a cold
// server still serves.
type TuneSelector struct {
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
// shape). Every entry gets the full key round-trip, so one whose kernel
// or device hash no longer matches the current sources is never served.
func (t *TuneSelector) WarmFromStore(st *store.Store) (int, []string) {
	n := 0
	var warns []string
	for _, se := range st.Entries() {
		if !strings.HasPrefix(se.Key.Mode, "tune/") {
			continue
		}
		e, err := tune.EntryFromStore(se)
		if err != nil {
			warns = append(warns, err.Error())
			continue
		}
		t.Warm(e)
		n++
	}
	return n, warns
}

// ChooseCounts returns, per shape key, how often the underlying choice
// actually computed — the singleflight observable: every count is 1
// however many dispatchers asked.
func (t *TuneSelector) ChooseCounts() map[string]int { return t.flight.ComputeCounts() }

// Choose implements Selector: one computation per (device, shape),
// concurrent callers coalesced by the singleflight, results cached for
// the server's lifetime (tuning verdicts don't change mid-run).
func (t *TuneSelector) Choose(dev gpu.Device, p kernels.Problem) (tune.Choice, error) {
	key := dev.Name + "|" + p.Key()
	return t.flight.Do(key, func() (tune.Choice, error) {
		t.mu.Lock()
		defer t.mu.Unlock()
		return tune.Select(t.cache, dev, p, t.waves), nil
	})
}
