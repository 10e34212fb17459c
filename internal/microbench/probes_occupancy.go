package microbench

import (
	"fmt"

	"repro/internal/gpu"
)

// occExpect is a standalone replica of the paper's Section 7.1
// occupancy arithmetic (warp-granular register allocation rounded to
// the allocation unit; warp, block, register, and shared-memory
// limits). It deliberately does not call gpu.Device.OccupancyFor — the
// probe asserts the simulator against this independent model, so a
// regression in either side shows up as a mismatch.
func occExpect(d gpu.Device, threads, regs, smem int) int {
	warpsPerBlock := threads / 32
	regsPerWarp := ((regs*32 + d.RegAllocUnit - 1) / d.RegAllocUnit) * d.RegAllocUnit
	regsPerBlock := regsPerWarp * warpsPerBlock
	if regsPerBlock > d.RegFileRegs || smem > d.MaxSmemPerSM {
		return 0
	}
	limit := d.MaxBlocksPerSM
	if byWarps := d.MaxWarpsPerSM / warpsPerBlock; byWarps < limit {
		limit = byWarps
	}
	if byRegs := d.RegFileRegs / regsPerBlock; byRegs < limit {
		limit = byRegs
	}
	if smem > 0 {
		if bySmem := d.MaxSmemPerSM / smem; bySmem < limit {
			limit = bySmem
		}
	}
	if limit < 1 {
		return 0
	}
	return limit
}

// probeOccupancy launches kernels shaped to make each occupancy limiter
// the binding one and reads the resulting blocks-per-SM back from the
// launch. A launch the machine rejects measures as 0. The five points
// pin down max_warps_per_sm, max_blocks_per_sm, regfile_regs,
// reg_alloc_unit, and max_smem_per_sm respectively.
func (c *calib) probeOccupancy() error {
	points := []struct {
		probe, field        string
		threads, regs, smem int
	}{
		// 1024 threads, tiny regs: warps bind.
		{"occ_warps", "max_warps_per_sm", 1024, 16, 0},
		// One warp, tiny regs: the block limit binds.
		{"occ_blocks", "max_blocks_per_sm", 32, 16, 0},
		// 256 threads at max regs: exactly fills the register file, so
		// one register fewer makes the launch fail.
		{"occ_regfile", "regfile_regs", 256, 255, 0},
		// 146 regs/thread rounds differently under different allocation
		// units, shifting the blocks-per-SM count.
		{"occ_allocunit", "reg_alloc_unit", 32, 146, 0},
		// A block claiming the whole shared memory: exactly one fits.
		{"occ_smem", "max_smem_per_sm", 32, 16, c.spec.MaxSmemPerSM},
	}
	for _, p := range points {
		s := c.newSim()
		measured := 0
		k, err := probeKernel(trivialKernel(p.regs, p.smem))
		if err != nil {
			return err
		}
		m, err := s.Launch(k, gpu.LaunchOpts{Grid: 1, Block: p.threads})
		if err == nil {
			measured = m.Occupancy.BlocksPerSM
		}
		c.add(p.probe, p.field,
			float64(measured), float64(occExpect(c.spec, p.threads, p.regs, p.smem)), 0,
			fmt.Sprintf("blocks/SM at %d threads, %d regs, %d B smem", p.threads, p.regs, p.smem))
	}
	return nil
}
