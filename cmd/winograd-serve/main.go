// winograd-serve runs the batched inference service.
//
// Usage:
//
//	winograd-serve [-requests N] [-seed S] [-jobs N] [-waves N] [-device D] [-store PATH] [-serveexec K] [-listen ADDR] [-markdown]
//
// By default it runs the deterministic load generator (virtual-time
// simulation of the batching policy with sampled real batch executions)
// and prints per-shape latency percentiles, batch-size occupancy, and
// execution checksums — byte-identical for a fixed -seed whatever -jobs
// is. With -listen it serves POST /v1/infer for real.
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
