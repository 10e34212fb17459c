package serve

import (
	"sync"
	"testing"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/store"
	"repro/internal/tune"
)

// FixedSelector always returns one Choice: the stub Selector of the
// server's tests.
type FixedSelector tune.Choice

// Choose implements Selector.
func (f FixedSelector) Choose(gpu.Device, kernels.Problem) (tune.Choice, error) {
	return tune.Choice(f), nil
}

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

// TestTuneSelectorChoosesOnce: many dispatchers asking for the same
// warmed shape compute its choice exactly once (the singleflight), and
// every one of them gets the warmed fused time, not the model fallback.
func TestTuneSelectorChoosesOnce(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	sel := NewTuneSelector(4)
	sel.Warm(fusedEntry(dev, p, 4, 1e-9)) // absurdly fast: fused must win

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
	for w, ch := range choices {
		if ch.Source != "simulated" || ch.Algo != tune.AlgoFused {
			t.Fatalf("worker %d got (%s, %s), want a simulated fused choice", w, ch.Algo, ch.Source)
		}
	}
	key := dev.Name + "|" + p.Key()
	if counts := sel.ChooseCounts(); len(counts) != 1 || counts[key] != 1 {
		t.Fatalf("ChooseCounts = %v, want %s computed once", counts, key)
	}
}

// TestTuneSelectorModelFallback: with nothing cached the analytic model
// stands in and the server still serves.
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
// choice carries the stored fused time with Source "simulated".
func TestTuneSelectorWarmFromStore(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	st := store.New()
	storeEntry(t, st, dev, fusedEntry(dev, p, 4, 2e-9))

	sel := NewTuneSelector(4)
	n, warns := sel.WarmFromStore(st)
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

// TestTuneSelectorSkipsStaleEntries: an entry whose key carries a
// kernel hash and a device hash the current sources no longer produce is
// stale, so warming skips it with a warning and the choice stays on the
// model instead of serving the stored time.
func TestTuneSelectorSkipsStaleEntries(t *testing.T) {
	dev := gpu.RTX2070()
	p := kernels.Problem{C: 8, K: 64, N: 32, H: 6, W: 6}
	e := fusedEntry(dev, p, 4, 2e-9)
	key, err := tune.StoreKey(dev, p, 4, e.Config)
	if err != nil {
		t.Fatal(err)
	}
	key.KernelHash = "000000000000000000000000"
	key.DeviceHash = "ffffffffffffffffffffffff"
	st := store.New()
	if err := st.Put(key, e); err != nil {
		t.Fatal(err)
	}

	sel := NewTuneSelector(4)
	n, warns := sel.WarmFromStore(st)
	if n != 0 || len(warns) != 1 {
		t.Fatalf("WarmFromStore = (%d, %v), want (0, one warning)", n, warns)
	}
	ch, err := sel.Choose(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	if ch.Source != "model" {
		t.Fatalf("stale entry was served: Source = %q, fused %g", ch.Source, ch.FusedSeconds)
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
	if n, _ := sel.WarmFromStore(st); n != 1 {
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
