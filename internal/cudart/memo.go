package cudart

import (
	"math"
	"sync"

	"repro/internal/tensor"
	"repro/internal/winograd"
)

// filterMemoFloats bounds the memo: the float32s held by all entries,
// each entry's confirmation copy and transformed filter together, stay
// at or below it (16 MiB). A served model's layers fit many times over;
// a filter too large to fit on its own is transformed on every call.
const filterMemoFloats = 1 << 22

// filterKey identifies a filter by content: its layout and dims, the
// transform it gets, and a hash of its exact bits. The hash only picks
// the entry; a hit is confirmed against the entry's stored copy.
type filterKey struct {
	layout   tensor.Layout
	dims     [4]int
	variant  winograd.Variant
	nonFused bool
	sum      uint64
}

type filterEntry struct {
	bits []uint32 // the weights the transform was computed from
	f    winograd.Filter
	size int // floats held: len(bits) plus the transformed filter
}

// filterMemo keeps the Winograd filter transforms Forward has computed,
// so a served layer, whose weights do not change between batches, is
// transformed once rather than on every batch. It holds no reference to
// a caller's tensor, and is safe for concurrent use.
type filterMemo struct {
	mu     sync.Mutex
	m      map[filterKey]*filterEntry
	order  []filterKey // insertion order, oldest first: the eviction queue
	floats int         // sum of the entries' sizes
}

// filterTransforms is Forward's memo. It is package state so that
// Forward's signature, and every executor calling it, stays as it is.
var filterTransforms filterMemo

// transform returns flt's transform for opt, from the memo when an entry
// holds exactly flt's bits (±0 and NaN payloads included), so a filter
// mutated in place is never served a stale transform.
func (m *filterMemo) transform(flt *tensor.Tensor, opt winograd.Options) (*winograd.Filter, error) {
	key := keyOf(flt, opt)
	m.mu.Lock()
	e := m.m[key]
	m.mu.Unlock()
	if e != nil && sameBits(e.bits, flt.Data) {
		return &e.f, nil
	}
	bits := bitsOf(flt.Data)
	f, err := winograd.TransformFilter(flt, opt)
	if err != nil {
		return nil, err
	}
	fs := flt.FilterShapeOf()
	e = &filterEntry{bits: bits, f: f, size: len(bits) + opt.Variant.TileArea()*fs.C*fs.K}
	m.put(key, e)
	return &e.f, nil
}

func keyOf(flt *tensor.Tensor, opt winograd.Options) filterKey {
	return filterKey{layout: flt.Layout, dims: flt.Dims, variant: opt.Variant, nonFused: opt.NonFused, sum: bitsSum(flt.Data)}
}

// put stores e under key, replacing an entry whose bits no longer match
// (a filter mutated in place, or a hash collision), and evicts the
// oldest entries until the memo is back within filterMemoFloats.
func (m *filterMemo) put(key filterKey, e *filterEntry) {
	if e.size > filterMemoFloats {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.m == nil {
		m.m = make(map[filterKey]*filterEntry)
	}
	if old, ok := m.m[key]; ok {
		m.floats -= old.size
	} else {
		m.order = append(m.order, key)
	}
	m.m[key] = e
	m.floats += e.size
	for m.floats > filterMemoFloats {
		oldest := m.order[0]
		m.order = m.order[1:]
		m.floats -= m.m[oldest].size
		delete(m.m, oldest)
	}
}

// bitsSum is FNV-1a over the 32-bit patterns of xs.
func bitsSum(xs []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
	}
	return h
}

// bitsOf copies the bit patterns of xs.
func bitsOf(xs []float32) []uint32 {
	bits := make([]uint32, len(xs))
	for i, x := range xs {
		bits[i] = math.Float32bits(x)
	}
	return bits
}

// sameBits reports whether xs holds exactly the bit patterns in bits.
func sameBits(bits []uint32, xs []float32) bool {
	if len(bits) != len(xs) {
		return false
	}
	for i, x := range xs {
		if math.Float32bits(x) != bits[i] {
			return false
		}
	}
	return true
}
