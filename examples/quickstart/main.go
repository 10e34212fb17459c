// Quickstart: run a 3x3 convolution with the Winograd algorithm on the
// CPU, compare it against the direct reference, and show the arithmetic
// saving that motivates the paper. It exits non-zero when either
// algorithm's error exceeds its bound.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/conv"
	"repro/internal/tensor"
	"repro/internal/winograd"
)

// Error bounds against the direct reference: F(2x2,3x3)'s transforms
// are exact in float32, so its error is summation-order noise; 5e-4 is
// the paper's float32 bound for F(4x4,3x3) (Table 5).
const fusedTol, nonFusedTol = 2e-4, 5e-4

func main() {
	// A ResNet-Conv3-like problem at a small batch.
	shape := tensor.Shape4{N: 8, C: 64, H: 28, W: 28}
	const filters = 64

	input := tensor.NewImage(tensor.NCHW, shape)
	input.FillRandom(1)
	filter := tensor.NewFilter(tensor.KCRS, tensor.FilterShape{K: filters, C: shape.C, R: 3, S: 3})
	filter.FillRandom(2)

	// Direct convolution: the correctness reference.
	t0 := time.Now()
	want, err := conv.DirectParallel(input, filter, conv.Params{Pad: 1})
	if err != nil {
		log.Fatal(err)
	}
	directTime := time.Since(t0)

	// Winograd F(2x2,3x3), the paper's fused algorithm, on the CPU; its
	// output is NCHW like its input, so it compares with want directly.
	t0 = time.Now()
	got, err := winograd.Conv2D(input, filter, 1)
	if err != nil {
		log.Fatal(err)
	}
	winoTime := time.Since(t0)

	diff := tensor.MaxRelDiff(want, got)
	fmt.Printf("problem: N=%d C=%d K=%d %dx%d (pad 1)\n", shape.N, shape.C, filters, shape.H, shape.W)
	fmt.Printf("direct convolution:   %v\n", directTime)
	fmt.Printf("winograd F(2x2,3x3):  %v\n", winoTime)
	fmt.Printf("max relative error:   %.2e\n", diff)
	fmt.Printf("multiplication saving: %.2fx fewer multiplies than direct (theory: 2.25x)\n",
		winograd.F2x2.MulReduction())

	// The F(4x4,3x3) variant used by non-fused implementations.
	f44, err := winograd.PrepareNonFused(filter)
	if err != nil {
		log.Fatal(err)
	}
	got44, err := winograd.Conv(input, &f44, 1)
	if err != nil {
		log.Fatal(err)
	}
	diff44 := tensor.MaxRelDiff(want, got44)
	fmt.Printf("F(4x4,3x3) non-fused error: %.2e (4x multiply reduction)\n", diff44)

	if diff > fusedTol || diff44 > nonFusedTol {
		log.Fatalf("FAIL: errors exceed %.0e (fused) or %.0e (non-fused)", fusedTol, nonFusedTol)
	}
}
