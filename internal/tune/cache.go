package tune

import (
	"fmt"

	"repro/internal/kernels"
)

// Entry is one simulator measurement of a kernel configuration on a
// problem shape, and the payload it persists as in the experiment store
// (store.go). Everything the report and the selection logic need is
// denormalized into the entry, so warm runs render tables from the store
// alone, byte-identical to the cold run that wrote it.
type Entry struct {
	Device    string          `json:"device"`
	Problem   string          `json:"problem"` // kernels.Problem.Key()
	Shape     kernels.Problem `json:"shape"`
	Config    kernels.Config  `json:"config"` // canonical spelling
	ConfigKey string          `json:"config_key"`
	Waves     int             `json:"waves"`
	Seconds   float64         `json:"seconds"` // wave-quantized whole-device runtime
	TFLOPS    float64         `json:"tflops"`  // direct-equivalent throughput
	Cycles    float64         `json:"cycles_per_wave"`
	SOL       float64         `json:"sol"`
	// Stalls attributes the profiled resident warp-cycles by stall
	// reason (fractions of the total), the evidence the report's "why"
	// column cites.
	Stalls map[string]float64 `json:"stalls,omitempty"`
}

func (e Entry) key() string {
	return fmt.Sprintf("%s|%s|waves%d|%s", e.Device, e.Problem, e.Waves, e.ConfigKey)
}

func cacheKey(device string, p kernels.Problem, waves int, cfgKey string) string {
	return fmt.Sprintf("%s|%s|waves%d|%s", device, p.Key(), waves, cfgKey)
}

// Cache is the in-memory tuning-result working set, keyed by
// (device, problem, waves, Config.Key). It has no file format of its
// own: results persist through the experiment store.
type Cache struct {
	Entries []Entry // insertion order

	index map[string]int
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{index: map[string]int{}}
}

// Put inserts or replaces the entry under its key.
func (c *Cache) Put(e Entry) {
	if c.index == nil {
		c.index = map[string]int{}
	}
	if i, ok := c.index[e.key()]; ok {
		c.Entries[i] = e
		return
	}
	c.index[e.key()] = len(c.Entries)
	c.Entries = append(c.Entries, e)
}

// Get looks up a measurement.
func (c *Cache) Get(device string, p kernels.Problem, waves int, cfgKey string) (Entry, bool) {
	i, ok := c.index[cacheKey(device, p, waves, cfgKey)]
	if !ok {
		return Entry{}, false
	}
	return c.Entries[i], true
}
