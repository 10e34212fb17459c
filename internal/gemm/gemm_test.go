package gemm

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randMat(r *tensor.RNG, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = r.Float32()
	}
	return m
}

func maxDiff(a, b []float32) float64 {
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestNaiveKnownValues(t *testing.T) {
	// [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	Naive(a, b, c, 2, 2, 2)
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}

func TestNaiveRectangular(t *testing.T) {
	// (1x3) * (3x2)
	a := []float32{1, 2, 3}
	b := []float32{1, 0, 0, 1, 1, 1}
	c := make([]float32, 2)
	Naive(a, b, c, 1, 3, 2)
	if c[0] != 4 || c[1] != 5 {
		t.Fatalf("c = %v, want [4 5]", c)
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	r := tensor.NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {64, 64, 64}, {65, 63, 130}, {128, 9, 200}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randMat(r, m*k)
		b := randMat(r, k*n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Naive(a, b, want, m, k, n)
		Blocked(a, b, got, m, k, n)
		if d := maxDiff(want, got); d > 1e-4 {
			t.Fatalf("Blocked(%dx%dx%d) differs from Naive by %v", m, k, n, d)
		}
	}
}

func TestBlockedOverwritesOutput(t *testing.T) {
	a := []float32{1}
	b := []float32{2}
	c := []float32{99}
	Blocked(a, b, c, 1, 1, 1)
	if c[0] != 2 {
		t.Fatalf("Blocked must overwrite, got %v", c[0])
	}
}

// TestBatchedMatchesPerBatchNaive checks Batched against Naive per batch
// and pins that the worker count cannot change the bits: every batch must
// equal a serial Blocked product of that batch exactly.
func TestBatchedMatchesPerBatchNaive(t *testing.T) {
	r := tensor.NewRNG(3)
	batch, m, k, n := 16, 12, 10, 14
	a := randMat(r, batch*m*k)
	b := randMat(r, batch*k*n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, workers := range []int{runtime.GOMAXPROCS(0), 1, 3, 16} {
		runtime.GOMAXPROCS(workers) // the worker count of Batched's par.For
		got := make([]float32, batch*m*n)
		Batched(a, b, got, batch, m, k, n)
		for i := 0; i < batch; i++ {
			ai, bi, gi := a[i*m*k:(i+1)*m*k], b[i*k*n:(i+1)*k*n], got[i*m*n:(i+1)*m*n]
			want := make([]float32, m*n)
			Naive(ai, bi, want, m, k, n)
			if d := maxDiff(want, gi); d > 1e-4 {
				t.Fatalf("workers=%d: batch %d differs from Naive by %v", workers, i, d)
			}
			Blocked(ai, bi, want, m, k, n)
			for j := range want {
				if math.Float32bits(want[j]) != math.Float32bits(gi[j]) {
					t.Fatalf("workers=%d: batch %d element %d = %v, serial Blocked gives %v",
						workers, i, j, gi[j], want[j])
				}
			}
		}
	}
}

func TestCheckDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short buffers")
		}
	}()
	Naive(make([]float32, 3), make([]float32, 4), make([]float32, 4), 2, 2, 2)
}

// Property: for random sizes and data, the blocked kernel agrees with the
// naive kernel.
func TestGEMMProperty(t *testing.T) {
	f := func(seed uint64, mRaw, kRaw, nRaw uint8) bool {
		m := int(mRaw%20) + 1
		k := int(kRaw%20) + 1
		n := int(nRaw%20) + 1
		r := tensor.NewRNG(seed)
		a := randMat(r, m*k)
		b := randMat(r, k*n)
		want := make([]float32, m*n)
		got := make([]float32, m*n)
		Naive(a, b, want, m, k, n)
		Blocked(a, b, got, m, k, n)
		return maxDiff(want, got) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBlocked256(b *testing.B) {
	r := tensor.NewRNG(1)
	const n = 256
	a := randMat(r, n*n)
	bb := randMat(r, n*n)
	c := make([]float32, n*n)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Blocked(a, bb, c, n, n, n)
	}
}

// Naive computes C = A*B with A (m x k), B (k x n), C (m x n), all
// row-major. It is the correctness oracle for the optimized kernels.
func Naive(a, b, c []float32, m, k, n int) {
	checkDims(a, b, c, m, k, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = acc
		}
	}
}
