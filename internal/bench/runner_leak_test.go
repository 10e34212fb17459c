package bench

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gpu"
	"repro/internal/kernels"
)

// TestRunnerErrorMidPrefetchNoLeak cancels a concurrent prefetch from the
// inside: one declared job fails validation (instantly) while several
// real simulations are in flight on other workers. The contract under
// test is par.ForErr's drain semantics as the Runner uses them — Run must
// return the first error only after every worker goroutine has wound
// down, leaving no goroutine still simulating into a cache nobody will
// read. A goleak-style final check compares the goroutine count against
// the pre-test baseline and dumps all stacks on failure.
func TestRunnerErrorMidPrefetchNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()

	mk := func(n int, h int) Job {
		return Job{
			Dev: gpu.RTX2070(), Cfg: kernels.Ours(),
			P:        kernels.Problem{C: 64, K: 64, N: n, H: h, W: h},
			MainOnly: true, Hot: true,
		}
	}
	// Two valid jobs lead so the workers are busy simulating, the poison
	// job fails fast in the middle, more valid work queues behind it.
	poison := Job{
		Dev: gpu.RTX2070(), Cfg: kernels.Ours(),
		P:        kernels.Problem{C: 64, K: 63, N: 32, H: 8, W: 8}, // K%bk != 0
		MainOnly: true, Hot: true,
	}
	jobs := []Job{mk(32, 8), mk(64, 8), poison, mk(96, 8), mk(128, 8), mk(32, 10), mk(64, 10), mk(96, 10)}

	rendered := false
	exp := Experiment{
		ID: "poisoned", Title: "error mid-prefetch",
		Jobs: func(*Ctx) []Job { return jobs },
		Run: func(*Ctx) (*Table, error) {
			rendered = true
			return nil, nil
		},
	}

	runner := &Runner{Ctx: NewCtx(), Workers: 4}
	_, stats, err := runner.Run([]Experiment{exp})
	if err == nil {
		t.Fatal("poisoned run returned nil error")
	}
	if !strings.Contains(err.Error(), "K=63") {
		t.Fatalf("unexpected error: %v", err)
	}
	if rendered {
		t.Fatal("render phase ran despite prefetch error")
	}
	if stats.Unique != len(jobs) {
		t.Fatalf("stats.Unique = %d, want %d", stats.Unique, len(jobs))
	}

	// Workers that had a simulation in flight when the error hit finish
	// it and exit; give them a bounded window to drain, then require the
	// goroutine count back at (or below) the pre-test baseline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after Run returned: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
