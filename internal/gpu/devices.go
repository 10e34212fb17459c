package gpu

import (
	"embed"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/jsonx"
)

// A device is loadable data: the JSON files under devices/ are embedded
// into the binary, validated at first use, and served through a registry
// keyed by lower-cased name. Adding a device is adding a file (plus making
// it pass the internal/microbench calibration suite, which proves the
// spec against the simulated machine).
//
//go:embed devices/*.json
var deviceFiles embed.FS

// devices parses and validates every embedded device file once and
// returns the registry, which nothing writes after. An invalid embedded
// file is a programming error, not an input error, so it panics.
var devices = sync.OnceValue(func() map[string]Device {
	byName := make(map[string]Device)
	entries, err := deviceFiles.ReadDir("devices")
	if err != nil {
		panic(fmt.Sprintf("gpu: embedded device dir: %v", err))
	}
	for _, e := range entries {
		data, err := deviceFiles.ReadFile("devices/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("gpu: embedded device file %s: %v", e.Name(), err))
		}
		d, err := decodeDevice(data)
		if err == nil {
			err = addDevice(byName, d)
		}
		if err != nil {
			panic(fmt.Sprintf("gpu: device file %s: %v", e.Name(), err))
		}
	}
	return byName
})

// addDevice validates d and adds it to byName under its lower-cased
// name.
func addDevice(byName map[string]Device, d Device) error {
	if err := d.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(d.Name)
	if _, dup := byName[key]; dup {
		return fmt.Errorf("gpu: device %q already registered", d.Name)
	}
	byName[key] = d
	return nil
}

// decodeDevice reads a device file's first JSON value as a
// json.Decoder with DisallowUnknownFields does: an unknown key, at the
// top or in "lat", rejects the file.
func decodeDevice(data []byte) (Device, error) {
	var dv Device
	ints := [...]struct {
		name string
		v    *int
	}{
		{"sms", &dv.SMs}, {"schedulers_per_sm", &dv.SchedulersPerSM},
		{"max_warps_per_sm", &dv.MaxWarpsPerSM}, {"regfile_regs", &dv.RegFileRegs},
		{"reg_alloc_unit", &dv.RegAllocUnit}, {"max_smem_per_sm", &dv.MaxSmemPerSM},
		{"max_blocks_per_sm", &dv.MaxBlocksPerSM}, {"l2_latency_cycles", &dv.L2LatencyCycles},
		{"dram_latency_cycles", &dv.DRAMLatencyCycles}, {"l2_size_bytes", &dv.L2SizeBytes},
		{"mio_queue_depth", &dv.MIOQueueDepth}, {"mshrs", &dv.MSHRs},
		{"smem_bytes_per_cycle", &dv.SmemBytesPerCycle}, {"ldg_service_cycles", &dv.LDGServiceCycles},
		{"smem_banks", &dv.SmemBanks}, {"fp32_lanes", &dv.FP32Lanes},
	}
	lat := [...]struct {
		name string
		v    *int
	}{
		{"fp32", &dv.Lat.FP32}, {"alu", &dv.Lat.ALU}, {"s2r", &dv.Lat.S2R},
		{"smem", &dv.Lat.Smem}, {"bar_sync", &dv.Lat.BarSync},
	}
	d := jsonx.NewDecoder(data, "")
	d.Space()
	err := d.Object(func(key []byte) error {
		switch {
		case jsonx.KeyIs(key, "name"):
			return d.String(&dv.Name)
		case jsonx.KeyIs(key, "clock_ghz"):
			return d.Float(&dv.ClockGHz)
		case jsonx.KeyIs(key, "dram_bandwidth_gbs"):
			return d.Float(&dv.DRAMBandwidthGBs)
		case jsonx.KeyIs(key, "lat"):
			return d.Object(func(key []byte) error {
				for _, f := range lat {
					if jsonx.KeyIs(key, f.name) {
						return d.Int(f.v)
					}
				}
				return fmt.Errorf("unknown field %q in lat", key)
			})
		}
		for _, f := range ints {
			if jsonx.KeyIs(key, f.name) {
				return d.Int(f.v)
			}
		}
		return fmt.Errorf("unknown field %q", key)
	})
	return dv, err
}

// DeviceByName looks a registered device up, case-insensitively. An
// unknown name's error lists every registered name, so CLI -device flags
// surface the valid choices instead of a bare failure.
func DeviceByName(name string) (Device, error) {
	d, ok := devices()[strings.ToLower(name)]
	if !ok {
		return Device{}, fmt.Errorf("gpu: unknown device %q (registered: %s)",
			name, strings.Join(DeviceNames(), ", "))
	}
	return d, nil
}

// DeviceNames returns the registered device names, sorted.
func DeviceNames() []string {
	byName := devices()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func mustDevice(name string) Device {
	d, err := DeviceByName(name)
	if err != nil {
		panic(err)
	}
	return d
}
