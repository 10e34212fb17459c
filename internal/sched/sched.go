// Package sched is the caching singleflight shared by the benchmark job
// runner (internal/bench), the batched inference service (internal/serve)
// and the kernel-generation cache (internal/kernels): it deduplicates
// expensive keyed computations. It was factored out of internal/bench's
// job-graph machinery so all three consume one implementation.
package sched

import (
	"fmt"
	"sync"
)

// Flight is a caching singleflight: Do computes the value for a key at
// most once per Flight, however many goroutines ask concurrently — the
// first requester runs the function while later requesters of the same
// key block on its entry — and the result (value or error) is cached for
// every later call. The zero value is ready to use.
type Flight[V any] struct {
	mu sync.Mutex
	m  map[string]*flightEntry[V]
	// computes counts, per key, how many times fn actually ran — the
	// observable the dedup tests assert on (every value must be 1).
	computes map[string]int
}

// flightEntry is one singleflight cache slot: done is closed when the
// owning goroutine has filled v/err.
type flightEntry[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// Do returns the cached result for key, running fn at most once per key
// per Flight. Concurrent callers of one key share a single fn call; fn
// errors are cached like values (a failed key stays failed — callers that
// need retry semantics use a fresh key or a fresh Flight). A panicking fn
// panics in its own caller and caches an error for everyone else, so no
// requester of the key blocks forever.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if f.m == nil {
		f.m = map[string]*flightEntry[V]{}
		f.computes = map[string]int{}
	}
	if e, ok := f.m[key]; ok {
		f.mu.Unlock()
		<-e.done
		return e.v, e.err
	}
	e := &flightEntry[V]{done: make(chan struct{})}
	f.m[key] = e
	f.computes[key]++
	f.mu.Unlock()

	returned := false
	defer func() {
		if !returned {
			e.err = fmt.Errorf("sched: computing %q panicked", key)
		}
		close(e.done)
	}()
	e.v, e.err = fn()
	returned = true
	return e.v, e.err
}

// ComputeCounts returns a copy of the per-key computation counts. Under
// correct deduplication every count is exactly 1 however many goroutines
// requested the key.
func (f *Flight[V]) ComputeCounts() map[string]int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int, len(f.computes))
	for k, v := range f.computes {
		out[k] = v
	}
	return out
}
