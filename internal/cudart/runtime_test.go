// The goroutine-per-thread execution model the thread-level Algorithm 1
// oracle (oracle_test.go) runs on: kernels are functions run by a grid of
// thread blocks, each block owning shared memory and a __syncthreads
// barrier, with threads multiplexed onto goroutines.

package cudart

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/par"
)

// Dim3 is a 3-component launch dimension.
type Dim3 struct {
	X, Y, Z int
}

func (d Dim3) count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// TCtx is the per-thread view a kernel function receives.
type TCtx struct {
	Tid      int  // threadIdx.x (1-D blocks)
	Ctaid    Dim3 // blockIdx
	BlockDim int
	GridDim  Dim3
	block    *blockCtx
}

// Shared returns the block's shared float32 arena (allocated per block at
// launch, zeroed).
func (t *TCtx) Shared() []float32 { return t.block.shared }

// SyncThreads blocks until every live thread of the block reaches the
// barrier — __syncthreads(). Calling it with divergent thread subsets
// deadlocks, exactly like the real thing; the block tracks live versus
// waiting threads, detects the deadlock (a thread exits while peers wait,
// or the barrier completes after threads already exited without reaching
// it) and panics with a block/tid diagnostic rather than hanging.
func (t *TCtx) SyncThreads() {
	t.block.barrier(t.Tid)
}

// Kernel is a thread function.
type Kernel func(t *TCtx)

type blockCtx struct {
	shared  []float32
	ctaid   Dim3
	mu      sync.Mutex
	cond    *sync.Cond
	live    int   // threads that have not yet returned or panicked
	waiting []int // tids currently blocked in barrier, arrival order
	phase   int
	exited  []int // tids that returned normally, exit order
	// panicked records that a thread died to a kernel panic. The peers it
	// strands at a barrier are then released to run ahead rather than
	// reported as divergence: the panic is the root cause and divergence
	// diagnostics would only bury it.
	panicked bool
	// deadlock is the divergence diagnostic, set once; every thread that
	// is waiting at (or later reaches) a barrier panics with it.
	deadlock string
}

// barrier is __syncthreads for one thread. The counting barrier releases
// when every live thread has arrived; a single phase counter means all
// current waiters always wait on the same phase, so the two shapes a
// divergent kernel can take here are (a) a thread exiting while peers
// wait — detected in threadExit — and (b) the barrier completing among
// the live threads after other threads already exited without reaching
// it, detected at completion below. Real hardware hangs in both; this
// model panics with the diagnostic instead.
func (b *blockCtx) barrier(tid int) {
	b.mu.Lock()
	if b.deadlock != "" {
		d := b.deadlock
		b.mu.Unlock()
		panic(d)
	}
	b.waiting = append(b.waiting, tid)
	if len(b.waiting) == b.live {
		if len(b.exited) > 0 && !b.panicked {
			d := fmt.Sprintf("divergent __syncthreads in block (%d,%d,%d): threads %v wait at the phase-%d barrier that threads %v exited without reaching",
				b.ctaid.X, b.ctaid.Y, b.ctaid.Z, append([]int(nil), b.waiting...), b.phase, b.exited)
			b.deadlock = d
			b.cond.Broadcast()
			b.mu.Unlock()
			panic(d)
		}
		b.waiting = b.waiting[:0]
		b.phase++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	phase := b.phase
	for b.phase == phase && b.deadlock == "" {
		b.cond.Wait()
	}
	if b.deadlock != "" {
		d := b.deadlock
		b.mu.Unlock()
		panic(d)
	}
	b.mu.Unlock()
}

// threadExit retires a thread that returned from the kernel normally. If
// peers are blocked at a barrier this thread will now never reach, that
// is a divergent-barrier deadlock: the waiters are woken to panic with
// the diagnostic and the same diagnostic is returned for the exiting
// thread to report (it is already outside the kernel, so it records the
// panic directly rather than throwing).
func (b *blockCtx) threadExit(tid int) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	b.exited = append(b.exited, tid)
	if len(b.waiting) > 0 && !b.panicked && b.deadlock == "" {
		b.deadlock = fmt.Sprintf("divergent __syncthreads in block (%d,%d,%d): thread %d exited while threads %v wait at the phase-%d barrier",
			b.ctaid.X, b.ctaid.Y, b.ctaid.Z, tid, append([]int(nil), b.waiting...), b.phase)
		b.cond.Broadcast()
		return b.deadlock
	}
	return ""
}

// threadAbort retires a thread that died to a panic (the kernel's own or
// a divergence diagnostic). If its peers were waiting on it at a barrier
// they are released to continue — the recorded panic is the error the
// launch reports, not a hang.
func (b *blockCtx) threadAbort(tid int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.live--
	b.panicked = true
	if len(b.waiting) > 0 && len(b.waiting) >= b.live {
		b.waiting = b.waiting[:0]
		b.phase++
	}
	b.cond.Broadcast()
}

// LaunchConfig describes a kernel launch.
type LaunchConfig struct {
	Grid         Dim3
	BlockThreads int // threads per block (1-D)
	SharedFloats int // shared-memory floats per block
}

// threadPanic is one recorded kernel-thread panic, addressed by linear
// block index and tid so the launch error is deterministic.
type threadPanic struct {
	block, tid int
	ctaid      Dim3
	val        any
}

// panicLog collects every kernel-thread panic of one launch. The error
// reported is the first panic in (block, tid) order — a pure function of
// which threads panicked, not of goroutine scheduling — with the number
// of suppressed survivors appended.
type panicLog struct {
	mu sync.Mutex
	ps []threadPanic
}

func (l *panicLog) add(p threadPanic) {
	l.mu.Lock()
	l.ps = append(l.ps, p)
	l.mu.Unlock()
}

func (l *panicLog) err() error {
	if len(l.ps) == 0 {
		return nil
	}
	sort.Slice(l.ps, func(i, j int) bool {
		if l.ps[i].block != l.ps[j].block {
			return l.ps[i].block < l.ps[j].block
		}
		return l.ps[i].tid < l.ps[j].tid
	})
	p := l.ps[0]
	msg := fmt.Sprintf("cudart: kernel panic in block (%d,%d,%d), thread %d: %v",
		p.ctaid.X, p.ctaid.Y, p.ctaid.Z, p.tid, p.val)
	if n := len(l.ps) - 1; n > 0 {
		msg += fmt.Sprintf(" (and %d more thread panics)", n)
	}
	return errors.New(msg)
}

// Launch runs the kernel over the whole grid. Blocks execute through
// par.For on up to GOMAXPROCS workers; threads within a block are
// goroutines so SyncThreads works. Panics inside kernel threads
// (including divergent-barrier diagnostics) are all collected; the
// returned error reports the first by (block, tid) order plus a count of
// the suppressed rest.
func Launch(cfg LaunchConfig, k Kernel) error {
	if cfg.BlockThreads <= 0 {
		return fmt.Errorf("cudart: block must have threads")
	}
	blocks := cfg.Grid.count()
	gx := cfg.Grid.X
	if gx == 0 {
		gx = 1
	}
	gy := cfg.Grid.Y
	if gy == 0 {
		gy = 1
	}

	log := &panicLog{}
	par.For(blocks, 0, func(b int) { runBlock(cfg, k, b, gx, gy, log) })
	return log.err()
}

func runBlock(cfg LaunchConfig, k Kernel, b, gx, gy int, log *panicLog) {
	blk := &blockCtx{
		shared: make([]float32, cfg.SharedFloats),
		ctaid:  Dim3{X: b % gx, Y: (b / gx) % gy, Z: b / (gx * gy)},
		live:   cfg.BlockThreads,
	}
	blk.cond = sync.NewCond(&blk.mu)

	var tw sync.WaitGroup
	for tid := 0; tid < cfg.BlockThreads; tid++ {
		tw.Add(1)
		go func(tid int) {
			defer tw.Done()
			defer func() {
				if p := recover(); p != nil {
					log.add(threadPanic{block: b, tid: tid, ctaid: blk.ctaid, val: p})
					blk.threadAbort(tid)
				}
			}()
			k(&TCtx{
				Tid:      tid,
				Ctaid:    blk.ctaid,
				BlockDim: cfg.BlockThreads,
				GridDim:  cfg.Grid,
				block:    blk,
			})
			// A normal return while peers wait at a barrier is a divergent
			// deadlock; this thread is past the kernel, so it records the
			// diagnostic directly (the waiters throw it themselves).
			if diag := blk.threadExit(tid); diag != "" {
				log.add(threadPanic{block: b, tid: tid, ctaid: blk.ctaid, val: diag})
			}
		}(tid)
	}
	tw.Wait()
}
