package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/cubin"
)

// Kernel-source hashing. The experiment store (internal/store) keys
// results by the content of the kernel that produced them, so a change
// anywhere in the generation pipeline — emitter, schedules, assembler —
// invalidates stale measurements by a key miss instead of serving them.
// The hash covers everything the simulator consumes: the kernel's
// resource claims and the encoded instruction stream, control codes
// included.

// HashKernel returns a short content hash of an assembled kernel.
func HashKernel(k *cubin.Kernel) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|", k.Name, k.NumRegs, k.SmemBytes, k.ParamBytes, k.BarCount)
	var buf [16]byte
	for _, w := range k.Code {
		binary.LittleEndian.PutUint64(buf[:8], w.Lo)
		binary.LittleEndian.PutUint64(buf[8:], w.Hi)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// srcHashCache memoizes SourceHash per generation key; the underlying
// kernels are already memoized (genCache, a sched.Flight), this just
// skips re-hashing.
var srcHashCache sync.Map // generation key -> hash string

// SourceHash returns the content hash of the generated fused kernel for
// (cfg, p, mainLoopOnly) — the kernel-source component of a store key.
// Generation is pure CPU work and memoized process-wide, so warm store
// lookups cost an emit+assemble at most once per distinct kernel and a
// map hit afterwards.
func SourceHash(cfg Config, p Problem, mainLoopOnly bool) (string, error) {
	key := mainKey(cfg, p, mainLoopOnly)
	if v, ok := srcHashCache.Load(key); ok {
		return v.(string), nil
	}
	k, err := generateKeyed(key, cfg, p, mainLoopOnly)
	if err != nil {
		return "", err
	}
	hash := HashKernel(k)
	srcHashCache.Store(key, hash)
	return hash, nil
}
