package serve

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/store"
	"repro/internal/tune"
)

func fusedEntry(dev gpu.Device, p kernels.Problem, waves int, seconds float64) tune.Entry {
	cfg := kernels.Ours().Canonical()
	return tune.Entry{
		Device: dev.Name, Problem: p.Key(), Shape: p,
		Config: cfg, ConfigKey: cfg.Key(),
		Waves: waves, Seconds: seconds,
	}
}

// storeEntry puts a tune measurement into the store under the key the
// current kernel and device sources derive.
func storeEntry(t *testing.T, st *store.Store, dev gpu.Device, e tune.Entry) {
	t.Helper()
	key, err := tune.StoreKey(dev, e.Shape, e.Waves, e.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, e); err != nil {
		t.Fatal(err)
	}
}

// TestTuneSelectorColdMissMeasuredOnce: many dispatchers asking for the
// same cold shape trigger exactly one Measure (the singleflight), and
// the resulting choice is the simulated fused time, not the model
// fallback.
func TestTuneSelectorColdMissMeasuredOnce(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	var mu sync.Mutex
	calls := 0
	sel := NewTuneSelector(4)
	sel.Measure = func(d gpu.Device, mp kernels.Problem) (tune.Entry, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return fusedEntry(d, mp, 4, 1e-9), nil // absurdly fast: fused must win
	}

	const workers = 32
	choices := make([]tune.Choice, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ch, err := sel.Choose(dev, p)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			choices[w] = ch
		}(w)
	}
	wg.Wait()
	if calls != 1 {
		t.Fatalf("Measure ran %d times for one shape, want exactly 1", calls)
	}
	for w, ch := range choices {
		if ch.Source != "simulated" || ch.Algo != tune.AlgoFused {
			t.Fatalf("worker %d got (%s, %s), want a simulated fused choice", w, ch.Algo, ch.Source)
		}
	}
	for key, n := range sel.ChooseCounts() {
		if n != 1 {
			t.Fatalf("choice for %s computed %d times", key, n)
		}
	}
}

// TestTuneSelectorModelFallback: no cache, no Measure — the analytic
// model stands in and the server still serves.
func TestTuneSelectorModelFallback(t *testing.T) {
	sel := NewTuneSelector(4)
	ch, err := sel.Choose(gpu.RTX2070(), kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Source != "model" {
		t.Fatalf("cold selector Source = %q, want \"model\"", ch.Source)
	}
	if ch.Seconds <= 0 {
		t.Fatalf("cold selector predicted %g seconds", ch.Seconds)
	}
}

// TestTuneSelectorWarmFromStore: a measurement persisted in the
// content-addressed experiment store warms the selection — the looked-up
// choice carries the stored fused time with Source "simulated" and no
// Measure hook ever fires.
func TestTuneSelectorWarmFromStore(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	st := store.New()
	storeEntry(t, st, dev, fusedEntry(dev, p, 4, 2e-9))

	sel := NewTuneSelector(4)
	sel.Measure = func(gpu.Device, kernels.Problem) (tune.Entry, error) {
		t.Error("warm shape should not re-measure")
		return tune.Entry{}, nil
	}
	n, warns := sel.WarmFromStore(st, true)
	if n != 1 || len(warns) != 0 {
		t.Fatalf("WarmFromStore = (%d, %v), want (1, none)", n, warns)
	}
	ch, err := sel.Choose(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Source != "simulated" || ch.FusedSeconds != 2e-9 {
		t.Fatalf("warm choice = (%s, fused %g), want the stored 2e-9 simulated time", ch.Source, ch.FusedSeconds)
	}
}

// TestTuneSelectorWavesMismatchStaysCold: store entries at a different
// sampling depth are invisible to the selection (the waves key is part
// of the measurement protocol), so the choice degrades to the model.
func TestTuneSelectorWavesMismatchStaysCold(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	st := store.New()
	storeEntry(t, st, dev, fusedEntry(dev, p, 2, 2e-9))
	sel := NewTuneSelector(4) // depth 4 != stored depth 2
	if n, _ := sel.WarmFromStore(st, false); n != 1 {
		t.Fatalf("warmed %d entries, want 1", n)
	}
	ch, err := sel.Choose(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Source != "model" {
		t.Fatalf("depth-mismatched entry was used: Source = %q", ch.Source)
	}
}

// TestTuneSelectorMeasureErrorPropagates: a failing measurement fails
// the choice (and, cached by the singleflight, keeps failing — the
// server surfaces the error per batch instead of silently flip-flopping).
func TestTuneSelectorMeasureErrorPropagates(t *testing.T) {
	sel := NewTuneSelector(4)
	sel.Measure = func(gpu.Device, kernels.Problem) (tune.Entry, error) {
		return tune.Entry{}, errTestMeasure
	}
	_, err := sel.Choose(gpu.RTX2070(), kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6})
	if err == nil || !strings.Contains(err.Error(), "measure failed") {
		t.Fatalf("Choose = %v, want the measure error", err)
	}
}

var errTestMeasure = &measureErr{}

type measureErr struct{}

func (*measureErr) Error() string { return "measure failed" }
