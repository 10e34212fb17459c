package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightComputesOncePerKey(t *testing.T) {
	var f Flight[int]
	var computes int64
	const keys, callers = 8, 32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", k)
				v, err := f.Do(key, func() (int, error) {
					atomic.AddInt64(&computes, 1)
					time.Sleep(time.Millisecond) // widen the race window
					return k * 10, nil
				})
				if err != nil || v != k*10 {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
				}
			}
		}(c)
	}
	wg.Wait()
	if computes != keys {
		t.Fatalf("computed %d times for %d keys", computes, keys)
	}
	counts := f.ComputeCounts()
	if len(counts) != keys {
		t.Fatalf("%d keys computed, want %d", len(counts), keys)
	}
	for k, n := range counts {
		if n != 1 {
			t.Fatalf("key %s computed %d times", k, n)
		}
	}
}

func TestFlightCachesErrors(t *testing.T) {
	var f Flight[int]
	sentinel := errors.New("nope")
	var computes int
	for i := 0; i < 3; i++ {
		_, err := f.Do("bad", func() (int, error) {
			computes++
			return 0, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	if computes != 1 {
		t.Fatalf("failed key recomputed %d times", computes)
	}
}

// TestFlightPanicCachesError: a panicking fn panics in its caller, and
// every later requester of the key gets an error instead of blocking.
func TestFlightPanicCachesError(t *testing.T) {
	var f Flight[int]
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the fn's panic", p)
			}
		}()
		f.Do("k", func() (int, error) { panic("boom") })
	}()
	if _, err := f.Do("k", func() (int, error) { return 1, nil }); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("after the panic: err = %v, want the cached panic error", err)
	}
}
