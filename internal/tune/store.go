package tune

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/gpu"
	"repro/internal/jsonx"
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
func Mode(waves int) string { return "tune/waves=" + strconv.Itoa(waves) }

// StoreKey derives the content-addressed key for one measurement. It
// generates the kernel (memoized process-wide) to hash its source, so a
// key always names the kernel the current generator would produce.
func StoreKey(dev gpu.Device, p kernels.Problem, waves int, cfg kernels.Config) (store.Key, error) {
	return storeKey(dev.Name, dev.SpecHash(), p, waves, cfg)
}

// storeKey is StoreKey for a caller that already holds the device's
// spec hash.
func storeKey(dev, devHash string, p kernels.Problem, waves int, cfg kernels.Config) (store.Key, error) {
	kh, err := kernels.SourceHash(cfg, p, false)
	if err != nil {
		return store.Key{}, fmt.Errorf("tune: hashing kernel for %s on %s: %w", cfg.Key(), p.Key(), err)
	}
	return store.Key{
		Device:     dev,
		DeviceHash: devHash,
		KernelHash: kh,
		Problem:    p.Key(),
		Mode:       Mode(waves),
	}, nil
}

// EntryFromStore decodes a store entry back into a tune measurement and
// checks the payload against the whole key: device, problem and mode,
// then config and shape canonicalization and the kernel-source and
// device-spec hashes, which regenerates the kernel. It is the check for
// readers of entries they did not key themselves (`store verify`, the
// serving selector's WarmFromStore); the tuner checks its own hits with
// EntryForKey.
func EntryFromStore(se store.Entry) (Entry, error) {
	var e Entry
	if err := decodeEntry(se.Payload, &e); err != nil {
		return Entry{}, fmt.Errorf("tune: store entry %s: undecodable payload: %v", se.Key, err)
	}
	if e.Device != se.Key.Device {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload device %q does not match key", se.Key, e.Device)
	}
	if e.Problem != se.Key.Problem {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload problem %q does not match key", se.Key, e.Problem)
	}
	if se.Key.Mode != Mode(e.Waves) {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload waves %d does not match mode", se.Key, e.Waves)
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

// EntryForKey decodes the entry that a lookup of the key derived from
// (dev, p, waves, cfg) found, and checks that its payload measures
// exactly those inputs. The key matched, so its kernel-source and
// device-spec hashes are the current ones for cfg on p; with the payload
// tied to every input of the key, the check is as complete as
// EntryFromStore's and regenerates nothing.
func EntryForKey(se store.Entry, dev string, p kernels.Problem, waves int, cfg kernels.Config) (Entry, error) {
	var e Entry
	if err := decodeEntry(se.Payload, &e); err != nil {
		return Entry{}, fmt.Errorf("tune: store entry %s: undecodable payload: %v", se.Key, err)
	}
	if e.Device != dev || e.Shape != p || e.Problem != p.Key() || e.Waves != waves || e.Config != cfg || e.ConfigKey != cfg.Key() {
		return Entry{}, fmt.Errorf("tune: store entry %s: payload measures %s on %s %s at waves %d, not the %s it is keyed for",
			se.Key, e.ConfigKey, e.Device, e.Problem, e.Waves, cfg.Key())
	}
	return e, nil
}

// decodeEntry decodes a payload into *e as json.Unmarshal does.
func decodeEntry(data []byte, e *Entry) error {
	d := jsonx.NewDecoder(data, "")
	d.Space()
	err := d.Object(func(key []byte) error {
		switch {
		case jsonx.KeyIs(key, "device"):
			return d.String(&e.Device)
		case jsonx.KeyIs(key, "problem"):
			return d.String(&e.Problem)
		case jsonx.KeyIs(key, "shape"):
			p := &e.Shape
			return d.Object(func(key []byte) error {
				for _, f := range [...]struct {
					name string
					v    *int
				}{{"C", &p.C}, {"K", &p.K}, {"N", &p.N}, {"H", &p.H}, {"W", &p.W}} {
					if jsonx.KeyIs(key, f.name) {
						return d.Int(f.v)
					}
				}
				return d.Skip()
			})
		case jsonx.KeyIs(key, "config"):
			c := &e.Config
			return d.Object(func(key []byte) error {
				if jsonx.KeyIs(key, "UseP2R") {
					return d.Bool(&c.UseP2R)
				}
				for _, f := range [...]struct {
					name string
					v    *int
				}{{"BK", &c.BK}, {"YieldEvery", &c.YieldEvery}, {"LDGGap", &c.LDGGap}, {"STSGap", &c.STSGap}, {"DeclaredSmem", &c.DeclaredSmem}} {
					if jsonx.KeyIs(key, f.name) {
						return d.Int(f.v)
					}
				}
				return d.Skip()
			})
		case jsonx.KeyIs(key, "config_key"):
			return d.String(&e.ConfigKey)
		case jsonx.KeyIs(key, "waves"):
			return d.Int(&e.Waves)
		case jsonx.KeyIs(key, "seconds"):
			return d.Float(&e.Seconds)
		case jsonx.KeyIs(key, "tflops"):
			return d.Float(&e.TFLOPS)
		case jsonx.KeyIs(key, "cycles_per_wave"):
			return d.Float(&e.Cycles)
		case jsonx.KeyIs(key, "sol"):
			return d.Float(&e.SOL)
		case jsonx.KeyIs(key, "stalls"):
			switch d.Peek() {
			case 'n':
				e.Stalls = nil
			case '{':
				if e.Stalls == nil {
					e.Stalls = map[string]float64{}
				}
			}
			return d.Object(func(key []byte) error {
				var f float64 // a null value stores zero
				err := d.Float(&f)
				e.Stalls[string(key)] = f
				return err
			})
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
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
	// Exactly i/N: no spaces, trailing bytes or third field. A
	// missing "/" leaves N empty, which Atoi rejects.
	is, ns, _ := strings.Cut(s, "/")
	i, errI := strconv.Atoi(is)
	n, errN := strconv.Atoi(ns)
	if errI != nil || errN != nil {
		return Shard{}, fmt.Errorf("tune: shard %q is not of the form i/N", s)
	}
	sh := Shard{Index: i, Count: n}
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
