package kernels

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strconv"
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

// HashKernel returns a short content hash of an assembled kernel: the
// first 12 bytes, in hex, of the sha256 of
// "name|regs|smem|params|bars|" (decimal fields) and then every code
// word, low and high half, little-endian.
func HashKernel(k *cubin.Kernel) string {
	h := sha256.New()
	var buf [4 << 10]byte // the header, then 256 code words per Write
	b := append(buf[:0], k.Name...)
	for _, v := range [...]int{k.NumRegs, k.SmemBytes, k.ParamBytes, k.BarCount} {
		b = strconv.AppendInt(append(b, '|'), int64(v), 10)
	}
	h.Write(append(b, '|'))
	for code := k.Code; len(code) > 0; {
		n := min(len(code), len(buf)/16)
		for i, w := range code[:n] {
			binary.LittleEndian.PutUint64(buf[16*i:], w.Lo)
			binary.LittleEndian.PutUint64(buf[16*i+8:], w.Hi)
		}
		h.Write(buf[:16*n])
		code = code[n:]
	}
	var sum [sha256.Size]byte
	var out [24]byte
	hex.Encode(out[:], h.Sum(sum[:0])[:12])
	return string(out[:])
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
