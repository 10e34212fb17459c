package benchmark

import (
	"reflect"
	"testing"
	"time"
)

// TestLoadIsAFunctionOfTheSeed: one seed gives identical Poisson and
// burst schedules, layer mixes and images; another seed gives others.
func TestLoadIsAFunctionOfTheSeed(t *testing.T) {
	lens := []int{288, 256}
	mk := func(seed int64) (Load, Load) {
		return NewLoad(seed, PoissonArrivals(seed, 50, 10*time.Second), serveShares, lens),
			NewLoad(seed, FixedArrivals(64, burstRate), serveShares, lens)
	}
	p1, b1 := mk(7)
	p2, b2 := mk(7)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("the same seed gave different loads")
	}
	p3, b3 := mk(8)
	if reflect.DeepEqual(p1.Due, p3.Due) || reflect.DeepEqual(b1.Layer, b3.Layer) || reflect.DeepEqual(b1.Images, b3.Images) {
		t.Fatal("another seed gave the same schedule, mix or images")
	}
	if !reflect.DeepEqual(b1.Due, b3.Due) {
		t.Fatal("a fixed-rate schedule depends on the seed")
	}
	seen := map[string]bool{}
	for i, img := range p1.Images {
		if len(img) != lens[p1.Layer[i]] {
			t.Fatalf("request %d: image of %d floats for layer %d", i, len(img), p1.Layer[i])
		}
		if k := imageKey(img); seen[k] {
			t.Fatalf("request %d repeats an earlier image", i)
		} else {
			seen[k] = true
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	due := PoissonArrivals(3, 50, 100*time.Second)
	if n := len(due); n < 4500 || n > 5500 {
		t.Fatalf("%d arrivals in 100 s at 50/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] || due[i] >= 100*time.Second {
			t.Fatalf("arrival %d at %v after %v", i, due[i], due[i-1])
		}
	}
	if got := FixedArrivals(3, 1000); !reflect.DeepEqual(got, []time.Duration{0, time.Millisecond, 2 * time.Millisecond}) {
		t.Fatalf("FixedArrivals(3, 1000) = %v", got)
	}
}

// TestLayerMixProportions: the mix holds exactly the rounded shares.
func TestLayerMixProportions(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 101} {
		mix := LayerMix(1, n, serveShares)
		count := [2]int{}
		for _, l := range mix {
			count[l]++
		}
		if a := int(0.6*float64(n) + 0.5); count[0] != a || count[1] != n-a {
			t.Errorf("n=%d: mix %v, want %d of layer 0", n, count, a)
		}
	}
}
