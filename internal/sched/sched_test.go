package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	if f.Len() != keys {
		t.Fatalf("Len = %d, want %d", f.Len(), keys)
	}
	for k, n := range f.ComputeCounts() {
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

func TestPoolRunsEverySubmittedTask(t *testing.T) {
	p := StartPool(context.Background(), 4, 8)
	var ran int64
	for i := 0; i < 100; i++ {
		if !p.Submit(func() { atomic.AddInt64(&ran, 1) }) {
			t.Fatal("open pool refused a task")
		}
	}
	p.Close()
	if ran != 100 {
		t.Fatalf("ran %d tasks, want 100", ran)
	}
}

func TestPoolCloseDrainsQueuedTasks(t *testing.T) {
	p := StartPool(context.Background(), 1, 64)
	var ran int64
	gate := make(chan struct{})
	p.Submit(func() { <-gate }) // hold the single worker
	for i := 0; i < 32; i++ {
		p.Submit(func() { atomic.AddInt64(&ran, 1) })
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(gate)
	}()
	p.Close() // must wait for all 32 queued tasks, not abandon them
	if ran != 32 {
		t.Fatalf("Close abandoned queued tasks: ran %d of 32", ran)
	}
	if p.Submit(func() {}) {
		t.Fatal("closed pool accepted a task")
	}
}

func TestPoolContextCancelStopsIntakeOnly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := StartPool(ctx, 2, 4)
	var ran int64
	started := make(chan struct{})
	gate := make(chan struct{})
	p.Submit(func() {
		close(started)
		<-gate
		atomic.AddInt64(&ran, 1)
	})
	<-started
	cancel()
	if p.Submit(func() { atomic.AddInt64(&ran, 1) }) {
		t.Fatal("cancelled pool accepted a task")
	}
	close(gate)
	p.Close()
	if ran != 1 {
		t.Fatalf("in-flight task abandoned after cancel: ran %d, want 1", ran)
	}
}

func TestPoolSubmitCloseRace(t *testing.T) {
	// Hammer Submit against Close: no panics (send on closed channel),
	// and every accepted task runs before Close returns.
	for rep := 0; rep < 50; rep++ {
		p := StartPool(context.Background(), 2, 1)
		var accepted, ran int64
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if p.Submit(func() { atomic.AddInt64(&ran, 1) }) {
						atomic.AddInt64(&accepted, 1)
					}
				}
			}()
		}
		runtime.Gosched()
		p.Close()
		wg.Wait()
		if a, r := atomic.LoadInt64(&accepted), atomic.LoadInt64(&ran); a != r {
			t.Fatalf("rep %d: accepted %d tasks but ran %d", rep, a, r)
		}
	}
}
