package gpu

import (
	"math"
	"sort"
	"strings"
	"testing"
)

func TestPeakTFLOPS(t *testing.T) {
	// V100: 80 SMs x 64 lanes x 2 x 1.53 GHz = 15.67 TFLOPS (paper: 15.7T).
	if p := V100().PeakFP32TFLOPS(); math.Abs(p-15.67) > 0.05 {
		t.Fatalf("V100 peak = %v", p)
	}
	// RTX2070: 36 SMs x 64 lanes x 2 x 1.62 GHz = 7.46 TFLOPS.
	if p := RTX2070().PeakFP32TFLOPS(); math.Abs(p-7.46) > 0.05 {
		t.Fatalf("RTX2070 peak = %v", p)
	}
}

func TestOccupancyPaperTable7(t *testing.T) {
	// Our kernel: 256 threads, 253 regs, 48KB smem.
	// Register-bound to 1 block/SM on both devices.
	for _, dev := range []Device{V100(), RTX2070()} {
		occ, err := dev.OccupancyFor(256, 253, 48*1024)
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if occ.BlocksPerSM != 1 {
			t.Fatalf("%s ours: blocks/SM = %d, want 1", dev.Name, occ.BlocksPerSM)
		}
		if occ.WarpsPerScheduler != 2 {
			t.Fatalf("%s ours: warps/scheduler = %d, want 2", dev.Name, occ.WarpsPerScheduler)
		}
	}
	// cuDNN's kernel: 256 threads, 126 regs, 48KB smem.
	// Paper Section 7.1: 2 blocks/SM on V100 (96KB smem), 1 on RTX2070 (64KB).
	occV, err := V100().OccupancyFor(256, 126, 48*1024)
	if err != nil {
		t.Fatal(err)
	}
	if occV.BlocksPerSM != 2 {
		t.Fatalf("V100 cuDNN: %+v", occV)
	}
	occT, err := RTX2070().OccupancyFor(256, 126, 48*1024)
	if err != nil {
		t.Fatal(err)
	}
	if occT.BlocksPerSM != 1 {
		t.Fatalf("RTX2070 cuDNN: %+v", occT)
	}
}

func TestOccupancyErrors(t *testing.T) {
	dev := RTX2070()
	if _, err := dev.OccupancyFor(100, 32, 0); err == nil {
		t.Fatal("expected error for non-multiple-of-32 block")
	}
	if _, err := dev.OccupancyFor(256, 253, 80*1024); err == nil {
		t.Fatal("expected error for smem over Turing's 64KB")
	}
	if _, err := dev.OccupancyFor(1024, 253, 0); err == nil {
		t.Fatal("expected error: 1024 threads x 253 regs exceeds the register file")
	}
}

func TestOccupancyWarpLimited(t *testing.T) {
	dev := V100()
	occ, err := dev.OccupancyFor(1024, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 threads = 32 warps; V100 max 64 warps -> 2 blocks.
	if occ.BlocksPerSM != 2 || occ.Limiter != "warps" {
		t.Fatalf("occ = %+v", occ)
	}
}

func TestL2CacheBasics(t *testing.T) {
	c := newL2(16 * 1024) // 16KB = 128 lines = 16 sets x 8 ways
	if c.access(0) {
		t.Fatal("cold access should miss")
	}
	if !c.access(0) {
		t.Fatal("second access should hit")
	}
	if !c.access(64) {
		t.Fatal("same-line access should hit")
	}
	if c.access(128) {
		t.Fatal("next line should miss")
	}
	// Fill the set of line 0 (same set every 16 lines => stride 16*128B).
	for i := 1; i <= 8; i++ {
		c.access(uint32(i * 16 * 128))
	}
	if c.access(0) {
		t.Fatal("line 0 should have been evicted (LRU)")
	}
}

// TestDeviceValidateRejections exercises every Validate rule with a
// field value it must reject, mirroring the kernels Config.Validate
// table, plus the registered devices it must accept.
func TestDeviceValidateRejections(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*Device)
	}{
		{"empty name", func(d *Device) { d.Name = "" }},
		{"zero SMs", func(d *Device) { d.SMs = 0 }},
		{"negative SMs", func(d *Device) { d.SMs = -4 }},
		{"zero clock", func(d *Device) { d.ClockGHz = 0 }},
		{"negative clock", func(d *Device) { d.ClockGHz = -1.5 }},
		{"zero schedulers", func(d *Device) { d.SchedulersPerSM = 0 }},
		{"zero warp limit", func(d *Device) { d.MaxWarpsPerSM = 0 }},
		{"zero register file", func(d *Device) { d.RegFileRegs = 0 }},
		{"zero alloc unit", func(d *Device) { d.RegAllocUnit = 0 }},
		{"zero smem capacity", func(d *Device) { d.MaxSmemPerSM = 0 }},
		{"zero block limit", func(d *Device) { d.MaxBlocksPerSM = 0 }},
		{"zero L2 latency", func(d *Device) { d.L2LatencyCycles = 0 }},
		{"DRAM latency below L2", func(d *Device) { d.DRAMLatencyCycles = d.L2LatencyCycles - 1 }},
		{"L2 below one set", func(d *Device) { d.L2SizeBytes = L2LineBytes*L2Ways - 1 }},
		{"zero bandwidth", func(d *Device) { d.DRAMBandwidthGBs = 0 }},
		{"zero MIO depth", func(d *Device) { d.MIOQueueDepth = 0 }},
		{"zero MSHRs", func(d *Device) { d.MSHRs = 0 }},
		{"zero LDG service", func(d *Device) { d.LDGServiceCycles = 0 }},
		{"smem pipe too narrow", func(d *Device) { d.SmemBytesPerCycle = 8 }},
		{"smem pipe too wide", func(d *Device) { d.SmemBytesPerCycle = 256 }},
		{"smem pipe not a power of two", func(d *Device) { d.SmemBytesPerCycle = 96 }},
		{"banks not a power of two", func(d *Device) { d.SmemBanks = 24 }},
		{"too many banks", func(d *Device) { d.SmemBanks = 64 }},
		{"lanes not a power of two", func(d *Device) { d.FP32Lanes = 24 }},
		{"too many lanes", func(d *Device) { d.FP32Lanes = 64 }},
		{"zero FP32 latency", func(d *Device) { d.Lat.FP32 = 0 }},
		{"FP32 latency above stall range", func(d *Device) { d.Lat.FP32 = maxCtrlStall + 1 }},
		{"zero ALU latency", func(d *Device) { d.Lat.ALU = 0 }},
		{"ALU latency above stall range", func(d *Device) { d.Lat.ALU = maxCtrlStall + 1 }},
		{"zero S2R latency", func(d *Device) { d.Lat.S2R = 0 }},
		{"zero smem latency", func(d *Device) { d.Lat.Smem = 0 }},
		{"BarSync within stall range", func(d *Device) { d.Lat.BarSync = maxCtrlStall }},
	}
	for _, tc := range bad {
		d := V100()
		tc.mutate(&d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the device", tc.name)
		}
	}
	for _, name := range DeviceNames() {
		d, err := DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("registered device %s fails Validate: %v", name, err)
		}
	}
}

// TestDeviceRegistry covers lookup, case-insensitivity, the
// unknown-name error listing, and duplicate registration.
func TestDeviceRegistry(t *testing.T) {
	names := DeviceNames()
	if len(names) < 4 {
		t.Fatalf("expected at least 4 registered devices, got %v", names)
	}
	if !sort.StringsAreSorted(names) {
		t.Errorf("DeviceNames not sorted: %v", names)
	}
	for _, want := range []string{"v100", "rtx2070", "k20x", "a100"} {
		if _, err := DeviceByName(want); err != nil {
			t.Errorf("DeviceByName(%q): %v", want, err)
		}
	}
	upper, err := DeviceByName("V100")
	if err != nil {
		t.Fatalf("case-insensitive lookup failed: %v", err)
	}
	if upper.Name != "V100" {
		t.Errorf("lookup returned %q", upper.Name)
	}
	_, err = DeviceByName("gtx480")
	if err == nil {
		t.Fatal("unknown device accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-device error %q does not list %q", err, name)
		}
	}
	register := func(d Device) error {
		return addDevice(map[string]Device{"v100": V100()}, d)
	}
	if err := register(V100()); err == nil {
		t.Error("duplicate registration accepted")
	}
	bad := V100()
	bad.Name = "broken"
	bad.SMs = 0
	if err := register(bad); err == nil {
		t.Error("invalid registration accepted")
	}
}

// TestDeviceWithDefaults checks zero microarchitectural fields inherit
// the paper defaults while set fields survive.
func TestDeviceWithDefaults(t *testing.T) {
	d := Device{Name: "bare", SMs: 1, ClockGHz: 1, SchedulersPerSM: 1,
		MaxWarpsPerSM: 8, RegFileRegs: 1 << 16, RegAllocUnit: 256,
		MaxSmemPerSM: 48 << 10, MaxBlocksPerSM: 4, L2LatencyCycles: 100,
		DRAMLatencyCycles: 200, L2SizeBytes: 1 << 20, DRAMBandwidthGBs: 100}
	full := d.WithDefaults()
	if full.MIOQueueDepth == 0 || full.MSHRs == 0 || full.SmemBytesPerCycle == 0 ||
		full.LDGServiceCycles == 0 || full.SmemBanks == 0 || full.FP32Lanes == 0 ||
		full.Lat.FP32 == 0 || full.Lat.ALU == 0 || full.Lat.S2R == 0 ||
		full.Lat.Smem == 0 || full.Lat.BarSync == 0 {
		t.Fatalf("WithDefaults left zero fields: %+v", full)
	}
	if err := full.Validate(); err != nil {
		t.Fatalf("defaulted device invalid: %v", err)
	}
	if full.SMs != 1 || full.L2LatencyCycles != 100 {
		t.Error("WithDefaults overwrote set fields")
	}
}

// TestSpecHash pins the content-addressing contract the experiment store
// builds on: the hash is a pure function of the spec, every registered
// device hashes distinctly, and editing any field yields a new hash.
func TestSpecHash(t *testing.T) {
	if got, again := V100().SpecHash(), V100().SpecHash(); got != again {
		t.Fatalf("SpecHash not deterministic: %s vs %s", got, again)
	}
	if len(V100().SpecHash()) != 24 {
		t.Fatalf("SpecHash length %d, want 24 hex chars", len(V100().SpecHash()))
	}
	seen := map[string]string{}
	for _, name := range DeviceNames() {
		d, err := DeviceByName(name)
		if err != nil {
			t.Fatal(err)
		}
		h := d.SpecHash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("devices %s and %s share spec hash %s", prev, name, h)
		}
		seen[h] = name
	}
	edited := V100()
	edited.DRAMLatencyCycles++
	if edited.SpecHash() == V100().SpecHash() {
		t.Fatal("editing a field did not change the spec hash")
	}
	// The name is part of the spec: a renamed-but-identical machine is a
	// different store address (results never cross device names).
	renamed := V100()
	renamed.Name = "v100-copy"
	if renamed.SpecHash() == V100().SpecHash() {
		t.Fatal("renaming did not change the spec hash")
	}
}
