// Package repro is a from-scratch Go reproduction of "Optimizing Batched
// Winograd Convolution on GPUs" (Yan, Wang, Chu — PPoPP 2020).
//
// The repository contains the paper's full system stack, rebuilt in pure
// Go with no external dependencies:
//
//   - a Winograd convolution library (internal/winograd) with fused
//     F(2x2,3x3) and non-fused F(4x4,3x3) variants, validated against
//     direct and im2col+GEMM convolution baselines (internal/conv);
//   - TuringAs, the paper's SASS assembler, re-implemented over a
//     documented 128-bit Volta/Turing-style encoding (internal/sass,
//     internal/turingas, internal/cubin);
//   - a warp-level, cycle-approximate GPU simulator with the
//     microarchitectural mechanisms the paper tunes at SASS level —
//     yield-flag scheduling, operand reuse, register and shared-memory
//     bank conflicts, MIO/MSHR back-pressure, occupancy, L2/DRAM
//     (internal/gpu);
//   - generators for the paper's fused Winograd kernel and the cuDNN-like
//     baseline, parameterized by every scheduling knob the paper studies
//     (internal/kernels);
//   - analytic models for the cuDNN algorithm comparison, workspace
//     accounting, roofline, and the fused/non-fused break-even analysis
//     (internal/model);
//   - a bench harness that regenerates every table and figure of the
//     paper's evaluation (internal/bench, cmd/winograd-bench).
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for paper-versus-measured results.
package repro
