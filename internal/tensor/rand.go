package tensor

// RNG is a small deterministic pseudo-random generator (xorshift64*) used
// to fill tensors reproducibly without importing math/rand, so that test
// fixtures and benchmark inputs are identical across platforms and runs.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// non-zero constant, since the all-zero state is a fixed point).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float32 returns a pseudo-random float32 uniform in [-1, 1).
func (r *RNG) Float32() float32 {
	// 24 mantissa-width bits mapped to [0,1), then shifted to [-1,1).
	// Every step is exact; the conversion keeps a compiler from fusing
	// the scaled sum into a multiply-add on platforms that have one.
	u := r.Uint64() >> 40
	return float32(float32(u)/float32(1<<24))*2 - 1
}

// FillRandom fills t with uniform values in [-1, 1) from the given seed.
func (t *Tensor) FillRandom(seed uint64) {
	r := NewRNG(seed)
	for i := range t.Data {
		t.Data[i] = r.Float32()
	}
}
