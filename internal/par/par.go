// Package par holds the tiny data-parallel loop helpers that are the one
// CPU fan-out in this repository. For runs the CPU kernels (conv's direct,
// im2col and FFT baselines, gemm.Batched, the Winograd transforms and fused
// blocks), cudart.Launch's thread blocks and winograd-bench calibrate's
// devices; ForErr runs the benchmark job runner, the tuner's store-key
// derivation and the inference load generator's sampled executions.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs f(i) for i in [0, n) across at most workers goroutines
// (GOMAXPROCS when workers <= 0), using an atomic counter for dynamic load
// balancing. It returns after every call has completed.
func For(n, workers int, f func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// ForErr runs f(i) for i in [0, n) across at most workers goroutines
// (GOMAXPROCS when workers <= 0) with the same dynamic load balancing as
// For. The lowest-index error wins, deterministically: once any call
// fails, remaining indices are drained without running f and in-flight
// calls finish; because indices are claimed in increasing order, every
// index below a failed one has already started, so after all workers stop
// the smallest failed index is known and its error is returned — the same
// error whatever the worker count or goroutine schedule, matching the
// byte-determinism contract of the harnesses built on top. With no
// failures it returns nil after every index has run exactly once.
func ForErr(n, workers int, f func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     int64
		stopped  int32
		mu       sync.Mutex
		firstIdx = -1
		first    error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for atomic.LoadInt32(&stopped) == 0 {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				if err := f(i); err != nil {
					// Record the error keyed by index: indices are claimed
					// in increasing order, so the smallest failed index is
					// guaranteed to have started (and to report here)
					// before any worker observes stopped.
					mu.Lock()
					if firstIdx < 0 || i < firstIdx {
						firstIdx, first = i, err
					}
					mu.Unlock()
					atomic.StoreInt32(&stopped, 1)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}
