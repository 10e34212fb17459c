package gpu

// ReadU32 reads raw words from device memory.
func (s *Sim) ReadU32(addr uint32, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = s.mem.load(addr + uint32(i*4))
	}
	return out
}

// Fill sets a float region to a constant (handy for zeroing workspaces).
func (s *Sim) Fill(addr uint32, n int, v float32) {
	bits := f32ToBits(v)
	s.mem.grow(int(addr)/4 + n)
	for i := 0; i < n; i++ {
		s.mem.store(addr+uint32(i*4), bits)
	}
}
