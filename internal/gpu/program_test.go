package gpu

import (
	"reflect"
	"sync"
	"testing"
)

// decodedPrograms reports how many distinct kernels have been decoded and
// analyzed process-wide.
func decodedPrograms() int {
	n := 0
	progCache.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestDecodeCacheSingleflight: many concurrent Sims launching the same
// kernel must add exactly one entry to the process-wide decoded-program
// cache, and all launches must agree on the timing result.
func TestDecodeCacheSingleflight(t *testing.T) {
	k := assemble(t, saxpySrc)
	before := decodedPrograms()

	const sims = 8
	cycles := make([]int64, sims)
	var wg sync.WaitGroup
	for i := 0; i < sims; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewSim(RTX2070())
			x := s.Alloc(4 * 128)
			y := s.Alloc(4 * 128)
			m, err := s.Launch(k, LaunchOpts{
				Grid: 4, Block: 32,
				Params: []uint32{x.Addr, y.Addr, f32ToBits(1.0), 100},
			})
			if err != nil {
				t.Error(err)
				return
			}
			cycles[i] = m.Cycles
		}(i)
	}
	wg.Wait()

	if got := decodedPrograms() - before; got != 1 {
		t.Fatalf("launching one kernel from %d Sims decoded %d programs, want 1", sims, got)
	}
	for i := 1; i < sims; i++ {
		if cycles[i] != cycles[0] {
			t.Fatalf("sim %d simulated %d cycles, sim 0 simulated %d", i, cycles[i], cycles[0])
		}
	}
}

// TestWarpPoolDeterminism: repeated launches on one Sim recycle warps and
// shared-memory images from its pools; a warm pool must produce exactly
// the cycle count and functional result of the cold first launch.
func TestWarpPoolDeterminism(t *testing.T) {
	k := assemble(t, reverseSrc)
	s := NewSim(RTX2070())
	s.HazardCheck = true
	in := s.Alloc(4 * 32)
	out := s.Alloc(4 * 32)
	data := make([]float32, 32)
	for i := range data {
		data[i] = float32(i + 1)
	}
	s.WriteF32(in.Addr, data)

	// Round 0 runs with a cold pool and a cold L2; later rounds recycle
	// its warps and smem image. The L2 is warm from round 1 on (persistent
	// per-Sim state, by design), so the determinism bar is: every warm
	// round matches round 1 exactly, and every round computes the right
	// answer.
	var warm int64
	for round := 0; round < 5; round++ {
		s.Fill(out.Addr, 32, 0)
		m, err := s.Launch(k, LaunchOpts{
			Grid: 1, Block: 32,
			Params: []uint32{in.Addr, out.Addr},
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(m.HazardViolations) != 0 {
			t.Fatalf("round %d hazards: %v", round, m.HazardViolations)
		}
		if round == 1 {
			warm = m.Cycles
		} else if round > 1 && m.Cycles != warm {
			t.Fatalf("round %d: %d cycles, round 1 took %d (pool reuse changed timing)", round, m.Cycles, warm)
		}
		got := s.ReadF32(out.Addr, 32)
		for i := range got {
			if got[i] != data[31-i] {
				t.Fatalf("round %d: out[%d] = %v, want %v", round, i, got[i], data[31-i])
			}
		}
	}
}

// TestBlockPartition pins the basic-block partition rules the threaded
// backend's chains are built on: BRA, EXIT, and BAR end a block, every
// branch target starts one, and the blocks tile the instruction stream
// exactly (nodes[start:end] is a block's full handler chain).
func TestBlockPartition(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []progBlock
	}{
		// Straight-line kernel with one barrier: the BAR at pc 6 ends
		// the first block.
		{"barrier", reverseSrc, []progBlock{{0, 7}, {7, 14}}},
		// Backward loop: the BRA at pc 5 ends its block and its target
		// (pc 2) starts one, splitting the loop preamble off.
		{"loop", loopSrc, []progBlock{{0, 2}, {2, 6}, {6, 12}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := assemble(t, tc.src)
			p, err := buildProgram(k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.blocks, tc.want) {
				t.Fatalf("blocks = %v, want %v", p.blocks, tc.want)
			}
			// The partition must tile [0, len(insts)) with no gaps and
			// one chain node per instruction.
			prev := 0
			for i, b := range p.blocks {
				if b.start != prev || b.end <= b.start {
					t.Fatalf("block %d = %v does not tile the stream", i, b)
				}
				prev = b.end
			}
			if prev != len(p.insts) || len(p.nodes) != len(p.insts) {
				t.Fatalf("partition covers [0,%d), nodes %d, want %d insts",
					prev, len(p.nodes), len(p.insts))
			}
		})
	}
}
