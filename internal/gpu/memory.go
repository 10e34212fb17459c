package gpu

import "fmt"

// mem is the simulated global memory: a flat word-addressed store shared
// by all SMs. Addresses are byte addresses; all accesses in this ISA are
// 4-byte aligned.
type mem struct {
	data []uint32
}

func (m *mem) grow(words int) {
	if words <= len(m.data) {
		return
	}
	if words <= cap(m.data) {
		// Reuse spare capacity; the tail beyond the old length is still
		// zero (stores past len reallocate through here, and shrink never
		// happens), so extending the view preserves zero-fill semantics.
		m.data = m.data[:words]
		return
	}
	// Double on growth so the incremental Alloc pattern (one buffer at a
	// time during problem setup) costs O(n) total copying, not O(n²).
	newCap := 2 * cap(m.data)
	if newCap < words {
		newCap = words
	}
	nd := make([]uint32, words, newCap)
	copy(nd, m.data)
	m.data = nd
}

func (m *mem) load(addr uint32) uint32 {
	w := addr / 4
	if int(w) >= len(m.data) {
		return 0
	}
	return m.data[w]
}

func (m *mem) store(addr, v uint32) {
	w := addr / 4
	if int(w) >= len(m.data) {
		m.grow(int(w) + 1)
	}
	m.data[w] = v
}

const l2Line = 128 // bytes per L2 cache line
const l2Ways = 8

// L2LineBytes and L2Ways expose the fixed L2 geometry the simulator
// models (line size and set associativity), so calibration replicas and
// device validation share the exact layout instead of a re-derived copy.
const (
	L2LineBytes = l2Line
	L2Ways      = l2Ways
)

// l2cache is a set-associative LRU model of one SM's slice of the device
// L2. Only load timing consults it; data always comes from the flat store
// (the cache tracks residency, not contents).
type l2cache struct {
	sets  int
	tags  []uint32 // sets * ways, tag 0 = empty (tags are line+1)
	order []uint8  // LRU stamps per way, small counter
}

func newL2(capacityBytes int) *l2cache {
	sets := capacityBytes / l2Line / l2Ways
	if sets < 1 {
		sets = 1
	}
	return &l2cache{
		sets:  sets,
		tags:  make([]uint32, sets*l2Ways),
		order: make([]uint8, sets*l2Ways),
	}
}

// access touches the line containing addr and reports whether it hit.
func (c *l2cache) access(addr uint32) bool {
	line := addr / l2Line
	set := int(line) % c.sets
	base := set * l2Ways
	tag := line + 1
	// Hit?
	for w := 0; w < l2Ways; w++ {
		if c.tags[base+w] == tag {
			c.touch(base, w)
			return true
		}
	}
	// Miss: evict LRU way.
	victim := 0
	for w := 1; w < l2Ways; w++ {
		if c.order[base+w] < c.order[base+victim] {
			victim = w
		}
	}
	c.tags[base+victim] = tag
	c.touch(base, victim)
	return false
}

// newL2Like returns an empty cache with the same geometry as src, for
// the Sharded launch path's snapshot/clone buffers.
func newL2Like(src *l2cache) *l2cache {
	return &l2cache{
		sets:  src.sets,
		tags:  make([]uint32, len(src.tags)),
		order: make([]uint8, len(src.order)),
	}
}

// copyFrom overwrites the cache with src's full state. Both caches must
// share a geometry (newL2Like guarantees it).
func (c *l2cache) copyFrom(src *l2cache) {
	copy(c.tags, src.tags)
	copy(c.order, src.order)
}

func (c *l2cache) touch(base, way int) {
	// Age-stamp scheme: bump the touched way to max; renormalize on
	// overflow.
	if c.order[base+way] == 255 {
		for w := 0; w < l2Ways; w++ {
			c.order[base+w] /= 2
		}
	}
	var maxStamp uint8
	for w := 0; w < l2Ways; w++ {
		if c.order[base+w] > maxStamp {
			maxStamp = c.order[base+w]
		}
	}
	c.order[base+way] = maxStamp + 1
}

// Buffer is a device-memory allocation.
type Buffer struct {
	Addr  uint32
	Bytes int
}

// Alloc reserves device memory (256-byte aligned). The zero address is
// never handed out so kernels can treat 0 as null.
func (s *Sim) Alloc(bytes int) Buffer {
	if bytes < 0 {
		panic("gpu: negative allocation")
	}
	addr := (s.allocOff + 255) &^ 255
	s.allocOff = addr + uint32(bytes)
	s.mem.grow(int(s.allocOff+3) / 4)
	return Buffer{Addr: addr, Bytes: bytes}
}

// WriteF32 copies host data into device memory at addr.
func (s *Sim) WriteF32(addr uint32, data []float32) {
	s.mem.grow(int(addr)/4 + len(data))
	for i, v := range data {
		s.mem.store(addr+uint32(i*4), f32ToBits(v))
	}
}

// ReadF32 copies n floats out of device memory at addr.
func (s *Sim) ReadF32(addr uint32, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = bitsToF32(s.mem.load(addr + uint32(i*4)))
	}
	return out
}

// WriteU32 copies raw words into device memory.
func (s *Sim) WriteU32(addr uint32, data []uint32) {
	s.mem.grow(int(addr)/4 + len(data))
	for i, v := range data {
		s.mem.store(addr+uint32(i*4), v)
	}
}

func checkAligned(addr uint32, width int) error {
	if int(addr)%width != 0 {
		return fmt.Errorf("gpu: address 0x%x not aligned to %d", addr, width)
	}
	return nil
}
