package benchmark

import (
	"math/rand"
	"time"
)

// Load is one open-loop request schedule: when each request is due,
// which model layer it calls, and the image it sends. Everything is a
// pure function of the seed, so two runs with one seed send identical
// traffic.
type Load struct {
	Due    []time.Duration // offset from the start of the phase, ascending
	Layer  []int           // index into the model's sorted layer names
	Images [][]float32     // one distinct image per request
}

// Len is the number of requests.
func (l Load) Len() int { return len(l.Due) }

// Independent generator streams per input property: changing the
// arrival process cannot reshuffle the layer mix or the images.
const (
	streamArrivals = iota + 1
	streamMix
	streamImages
)

func rng(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// PoissonArrivals returns due offsets of a Poisson process at rate
// requests per second, covering [0, dur).
func PoissonArrivals(seed int64, rate float64, dur time.Duration) []time.Duration {
	r := rng(seed, streamArrivals)
	var due []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// FixedArrivals returns n due offsets spaced exactly 1/rate apart.
func FixedArrivals(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return due
}

// LayerMix assigns n requests to layers in the exact proportions of
// shares (rounded, the remainder going to the last layer), in a seeded
// random order. A fixed proportion keeps the median request of a run on
// the same layer from seed to seed.
func LayerMix(seed int64, n int, shares []float64) []int {
	mix := make([]int, 0, n)
	for l, s := range shares {
		k := int(s*float64(n) + 0.5)
		if l == len(shares)-1 || len(mix)+k > n {
			k = n - len(mix)
		}
		for i := 0; i < k; i++ {
			mix = append(mix, l)
		}
	}
	r := rng(seed, streamMix)
	r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}

// NewLoad completes a schedule with a layer mix and one random image per
// request, sized by inLen[layer].
func NewLoad(seed int64, due []time.Duration, shares []float64, inLen []int) Load {
	l := Load{Due: due, Layer: LayerMix(seed, len(due), shares)}
	r := rng(seed, streamImages)
	l.Images = make([][]float32, len(due))
	for i, layer := range l.Layer {
		img := make([]float32, inLen[layer])
		for j := range img {
			img[j] = r.Float32() - 0.5
		}
		l.Images[i] = img
	}
	return l
}
