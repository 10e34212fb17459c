package serve

import "testing"

// quickLoad is a small but fully representative config: big enough for
// every sweet spot to appear, with a few sampled batches run for real.
func quickLoad(seed uint64, jobs int) LoadConfig {
	return LoadConfig{
		Seed:      seed,
		Requests:  900,
		ExecEvery: 7,
		Jobs:      jobs,
	}
}

// TestGenerateDeterministic: the report is a pure function of
// (seed, config) — byte-identical across repeated runs and across
// worker counts for the sampled executions.
func TestGenerateDeterministic(t *testing.T) {
	render := func(jobs int) string {
		rep, err := Generate(quickLoad(42, jobs))
		if err != nil {
			t.Fatal(err)
		}
		return rep.Format() + rep.Markdown()
	}
	a := render(1)
	b := render(1)
	if a != b {
		t.Fatalf("two identical runs differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	c := render(8)
	if a != c {
		t.Fatalf("jobs=8 differs from jobs=1:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", a, c)
	}
	if len(a) == 0 {
		t.Fatal("empty report")
	}
}

// TestGenerateSeedChangesReport: the seed actually reaches the arrival
// stream (a constant report would pass determinism vacuously).
func TestGenerateSeedChangesReport(t *testing.T) {
	a, err := Generate(quickLoad(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(quickLoad(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() == b.Format() {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestGenerateAllSweetSpots: the phased arrival stream exercises every
// batch size the paper evaluates, plus the padded partial fallback.
func TestGenerateAllSweetSpots(t *testing.T) {
	rep, err := Generate(quickLoad(42, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range SweetSpots() {
		if rep.Batches[n] == 0 {
			t.Errorf("no batch of size %d dispatched (batches: %v)", n, rep.Batches)
		}
	}
	if rep.PaddedSlots == 0 {
		t.Error("no padded partial batch dispatched — the deadline fallback went unexercised")
	}
	if rep.Sampled == 0 {
		t.Error("no batch was executed for real")
	}
	if rep.Accepted+rep.Rejected != rep.Total || rep.Total != 900 {
		t.Errorf("arrival accounting: %d accepted + %d rejected != %d total", rep.Accepted, rep.Rejected, rep.Total)
	}
}

// TestGenerateInFlightCriterion: at the default request volume the burst
// phase must hold over a thousand requests in flight at once.
func TestGenerateInFlightCriterion(t *testing.T) {
	rep, err := Generate(LoadConfig{Seed: 7, ExecEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxInFlight < 1000 {
		t.Fatalf("peak in-flight %d, want >= 1000 at the default volume", rep.MaxInFlight)
	}
}

// TestGenerateRejectsOverload: admission control in the simulation — a
// burst phase that outruns the queue bound must reject, and rejections
// must show up in the accounting.
func TestGenerateRejectsOverload(t *testing.T) {
	rep, err := Generate(LoadConfig{Seed: 7, Requests: 20000, ExecEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected == 0 {
		t.Fatalf("a burst of %d requests against queueCap=%d rejected nothing", rep.Total, queueCap)
	}
	if rep.Accepted+rep.Rejected != rep.Total {
		t.Fatalf("accounting: %d + %d != %d", rep.Accepted, rep.Rejected, rep.Total)
	}
}

// TestGenerateRealExecution: the sampled batches run through the
// default executor (the model's prepared weights) and their checksums
// land in the report — twice, identically.
func TestGenerateRealExecution(t *testing.T) {
	if testing.Short() {
		t.Skip("real batch execution is not short")
	}
	cfg := LoadConfig{Seed: 42, Requests: 400, ExecEvery: 11, Jobs: 4}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Sampled == 0 {
		t.Fatal("no sampled real executions")
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Fatalf("real-execution report not reproducible:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.Format(), b.Format())
	}
}
