package gpu

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// A device is loadable data: the JSON files under devices/ are embedded
// into the binary, validated at first use, and served through a registry
// keyed by lower-cased name. Adding a device is adding a file (plus making
// it pass the internal/microbench calibration suite, which proves the
// spec against the simulated machine).
//
//go:embed devices/*.json
var deviceFiles embed.FS

var registry struct {
	once   sync.Once
	mu     sync.Mutex
	byName map[string]Device
}

// loadRegistry parses and validates every embedded device file exactly
// once. An invalid embedded file is a programming error, not an input
// error, so it panics.
func loadRegistry() {
	registry.once.Do(func() {
		registry.byName = make(map[string]Device)
		entries, err := deviceFiles.ReadDir("devices")
		if err != nil {
			panic(fmt.Sprintf("gpu: embedded device dir: %v", err))
		}
		for _, e := range entries {
			data, err := deviceFiles.ReadFile("devices/" + e.Name())
			if err != nil {
				panic(fmt.Sprintf("gpu: embedded device file %s: %v", e.Name(), err))
			}
			var d Device
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&d); err != nil {
				panic(fmt.Sprintf("gpu: device file %s: %v", e.Name(), err))
			}
			if err := registerLocked(d); err != nil {
				panic(fmt.Sprintf("gpu: device file %s: %v", e.Name(), err))
			}
		}
	})
}

func registerLocked(d Device) error {
	if err := d.Validate(); err != nil {
		return err
	}
	key := strings.ToLower(d.Name)
	if _, dup := registry.byName[key]; dup {
		return fmt.Errorf("gpu: device %q already registered", d.Name)
	}
	registry.byName[key] = d
	return nil
}

// DeviceByName looks a registered device up, case-insensitively. An
// unknown name's error lists every registered name, so CLI -device flags
// surface the valid choices instead of a bare failure.
func DeviceByName(name string) (Device, error) {
	loadRegistry()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	d, ok := registry.byName[strings.ToLower(name)]
	if !ok {
		return Device{}, fmt.Errorf("gpu: unknown device %q (registered: %s)",
			name, strings.Join(deviceNamesLocked(), ", "))
	}
	return d, nil
}

// DeviceNames returns the registered device names, sorted.
func DeviceNames() []string {
	loadRegistry()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return deviceNamesLocked()
}

func deviceNamesLocked() []string {
	names := make([]string, 0, len(registry.byName))
	for n := range registry.byName {
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
