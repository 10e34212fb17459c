package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 1000
		counts := make([]int64, n)
		For(n, workers, func(i int) {
			atomic.AddInt64(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(0, 4, func(int) { ran = true })
	For(-3, 4, func(int) { ran = true })
	if ran {
		t.Fatal("For must not call f for n <= 0")
	}
}

func TestForMoreWorkersThanWork(t *testing.T) {
	var total int64
	For(3, 100, func(i int) { atomic.AddInt64(&total, int64(i)) })
	if total != 3 {
		t.Fatalf("sum = %d, want 3", total)
	}
}

func TestForErrRunsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		const n = 1000
		counts := make([]int64, n)
		err := ForErr(n, workers, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForErrZeroAndNegative(t *testing.T) {
	ran := false
	if err := ForErr(0, 4, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForErr(-3, 4, func(int) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("ForErr must not call f for n <= 0")
	}
}

func TestForErrFirstErrorWins(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4, 16} {
		const n = 100
		counts := make([]int64, n)
		err := ForErr(n, workers, func(i int) error {
			atomic.AddInt64(&counts[i], 1)
			if i == 5 {
				return fmt.Errorf("index %d: %w", i, sentinel)
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error = %v, want wrapped sentinel", workers, err)
		}
		for i, c := range counts {
			if c > 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForErrSequentialStopsImmediately(t *testing.T) {
	var calls int64
	err := ForErr(100, 1, func(i int) error {
		atomic.AddInt64(&calls, 1)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if calls != 4 {
		t.Fatalf("sequential ForErr ran %d calls after error at index 3, want 4", calls)
	}
}

func TestForErrConcurrentErrors(t *testing.T) {
	// Every call fails; exactly one error must be reported and the loop
	// must terminate — and determinism pins it to index 0's error.
	err := ForErr(64, 8, func(i int) error { return fmt.Errorf("err %d", i) })
	if err == nil {
		t.Fatal("expected an error")
	}
	if err.Error() != "err 0" {
		t.Fatalf("error = %v, want err 0 (lowest index wins)", err)
	}
}

// TestForErrLowestIndexWins pins the documented determinism contract:
// whatever the worker count or goroutine schedule, the returned error is
// the one from the lowest failing index. The lowest failing call (index
// 7) is deliberately made the *slowest* so that under concurrency a
// higher-index error (23 or 61) always reaches the recording path first;
// a first-to-the-mutex implementation returns those, a deterministic one
// never does. Run under -race in CI.
func TestForErrLowestIndexWins(t *testing.T) {
	fail := map[int]bool{7: true, 23: true, 61: true}
	for _, workers := range []int{1, 2, 4, 8, 16, 64} {
		for rep := 0; rep < 10; rep++ {
			var ran7 int64
			err := ForErr(100, workers, func(i int) error {
				if !fail[i] {
					return nil
				}
				if i == 7 {
					atomic.AddInt64(&ran7, 1)
					time.Sleep(2 * time.Millisecond)
				}
				return fmt.Errorf("failed at %d", i)
			})
			if err == nil || err.Error() != "failed at 7" {
				t.Fatalf("workers=%d rep=%d: error = %v, want failed at 7", workers, rep, err)
			}
			if ran7 != 1 {
				t.Fatalf("workers=%d rep=%d: index 7 ran %d times", workers, rep, ran7)
			}
		}
	}
}
