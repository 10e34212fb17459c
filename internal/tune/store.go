package tune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"repro/internal/gpu"
	"repro/internal/kernels"
	"repro/internal/store"
)

// Store adapter: tune measurements persist as payloads in the
// content-addressed experiment store (internal/store), keyed by
// (device name + spec hash, kernel-source hash, problem, mode). The store
// is the only persistence layer: generator or device-file changes miss
// instead of serving stale measurements, and shards merge
// byte-deterministically.

// Mode names the tune measurement protocol at one sampling depth. The
// simulation backend and worker count are deliberately absent: they are
// bit-identical by contract, so results are shared across them.
func Mode(waves int) string { return fmt.Sprintf("tune/waves=%d", waves) }

// StoreKey derives the content-addressed key for one measurement. It
// generates the kernel (memoized process-wide) to hash its source, so a
// key always names the kernel the current generator would produce.
func StoreKey(dev gpu.Device, p kernels.Problem, waves int, cfg kernels.Config) (store.Key, error) {
	kh, err := kernels.SourceHash(cfg, p, false)
	if err != nil {
		return store.Key{}, fmt.Errorf("tune: hashing kernel for %s on %s: %w", cfg.Key(), p.Key(), err)
	}
	return store.Key{
		Device:     dev.Name,
		DeviceHash: dev.SpecHash(),
		KernelHash: kh,
		Problem:    p.Key(),
		Mode:       Mode(waves),
	}, nil
}

// EntryFromStore decodes a store entry back into a tune measurement.
// The cheap always-on checks tie the payload to its address (device,
// problem, mode); the expensive key round-trip — config and shape
// canonicalization, kernel-source and device-spec rehashing — runs only
// when verify is set, because store.Load has already certified the
// payload bytes against their content hash (the -storeverify flag and
// `store verify` force the full check).
func EntryFromStore(se store.Entry, waves int, verify bool) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(se.Payload, &e); err != nil {
		return Entry{}, fmt.Errorf("tune: store entry %s: undecodable payload: %v", se.Key, err)
	}
	if e.Device != se.Key.Device {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload device %q does not match key", se.Key, e.Device)
	}
	if e.Problem != se.Key.Problem {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload problem %q does not match key", se.Key, e.Problem)
	}
	if se.Key.Mode != Mode(e.Waves) || (waves > 0 && e.Waves != waves) {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload waves %d does not match mode", se.Key, e.Waves)
	}
	if !verify {
		return e, nil
	}
	if e.Config.Key() != e.ConfigKey {
		return Entry{}, fmt.Errorf("tune: store entry %s: config does not round-trip its key (%s vs %s)", se.Key, e.Config.Key(), e.ConfigKey)
	}
	if e.Shape.Key() != e.Problem {
		return Entry{}, fmt.Errorf("tune: store entry %s: shape does not round-trip its key (%s vs %s)", se.Key, e.Shape.Key(), e.Problem)
	}
	kh, err := kernels.SourceHash(e.Config, e.Shape, false)
	if err != nil {
		return Entry{}, fmt.Errorf("tune: store entry %s: regenerating kernel: %v", se.Key, err)
	}
	if kh != se.Key.KernelHash {
		return Entry{}, fmt.Errorf("tune: store entry %s: kernel source hash drifted (current generator produces %s)", se.Key, kh)
	}
	if dev, err := gpu.DeviceByName(se.Key.Device); err == nil {
		if h := dev.SpecHash(); h != se.Key.DeviceHash {
			return Entry{}, fmt.Errorf("tune: store entry %s: device spec hash drifted (registered %s hashes %s)", se.Key, dev.Name, h)
		}
	}
	return e, nil
}

// VerifyEntry runs the full domain-level check on one store entry — the
// payload decode, the address consistency checks, and the complete key
// round-trip including kernel regeneration. `store verify` calls this
// for every tune-mode entry so the CI merge job doubles as a
// store-integrity gate.
func VerifyEntry(se store.Entry) error {
	_, err := EntryFromStore(se, 0, true)
	return err
}

// Shard deterministically partitions the candidate lattice: shard i of
// N (1-based) owns a store key when the key string hashes to i-1 mod N.
// The partition depends only on the key — not on cache state, case
// order, or worker count — so N disjoint processes cover the lattice
// exactly once and their partial stores merge into bytes identical to
// the single-process run.
type Shard struct {
	Index, Count int // 1-based index; Count <= 1 means unsharded
}

// ParseShard parses the CLI "i/N" spelling.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	var sh Shard
	if n, err := fmt.Sscanf(s, "%d/%d", &sh.Index, &sh.Count); err != nil || n != 2 {
		return Shard{}, fmt.Errorf("tune: shard %q is not of the form i/N", s)
	}
	if sh.Count < 1 || sh.Index < 1 || sh.Index > sh.Count {
		return Shard{}, fmt.Errorf("tune: shard %q out of range (want 1 <= i <= N)", s)
	}
	return sh, nil
}

func (sh Shard) enabled() bool { return sh.Count > 1 }

// Owns reports whether this shard is responsible for the key.
func (sh Shard) Owns(k store.Key) bool {
	if !sh.enabled() {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(k.String()))
	return int(h.Sum64()%uint64(sh.Count)) == sh.Index-1
}
