package main

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/bench"
	"repro/internal/gpu"
	"repro/internal/microbench"
	"repro/internal/par"
	"repro/internal/tune"
)

// calibrateOpts carries the calibrate-subcommand flags out of run's
// flag set.
type calibrateOpts struct {
	device   string // empty = every registered device
	jobs     int
	markdown bool
	backend  gpu.Backend
}

// runCalibrate is the `winograd-bench calibrate` subcommand: run the
// microbenchmark probe suite against one or all registered device
// files and print, per device, the probe report plus the Table-6-style
// per-layer algorithm selection the spec implies (cold tuning cache, so
// every fused time comes from the analytic model — a pure function of
// the device file). Devices calibrate across -jobs workers; stdout is
// byte-identical for any -jobs value. Returns 1 if any probe fails.
func runCalibrate(o calibrateOpts, stdout, stderr io.Writer) int {
	names := gpu.DeviceNames()
	if o.device != "" {
		dev, err := gpu.DeviceByName(o.device)
		if err != nil {
			fmt.Fprintf(stderr, "winograd-bench calibrate: %v\n", err)
			return 2
		}
		names = []string{strings.ToLower(dev.Name)}
	}

	reports := make([]devReport, len(names))
	par.For(len(names), max(o.jobs, 1), func(i int) {
		reports[i] = calibrateDevice(names[i], o)
	})

	failed := 0
	for i, r := range reports {
		if r.err != nil {
			fmt.Fprintf(stderr, "winograd-bench calibrate: %s: %v\n", names[i], r.err)
			return 1
		}
		fmt.Fprint(stdout, r.text)
		if len(r.fail) > 0 {
			failed++
			for _, f := range r.fail {
				fmt.Fprintf(stderr, "calibrate %s: FAIL %s\n", names[i], f)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "calibration failed on %d device(s)\n", failed)
		return 1
	}
	return 0
}

// devReport is one device's calibration section: its stdout text, its
// failed probes, or the error that stopped it.
type devReport struct {
	text string
	fail []string
	err  error
}

// calibrateDevice produces one device's calibration section.
func calibrateDevice(name string, o calibrateOpts) (out devReport) {
	dev, err := gpu.DeviceByName(name)
	if err != nil {
		out.err = err
		return
	}
	res, err := microbench.Calibrate(dev, microbench.Options{Backend: o.backend})
	if err != nil {
		out.err = err
		return
	}
	var b strings.Builder
	status := "PASS"
	if !microbench.Pass(res) {
		status = "FAIL"
		out.fail = microbench.Failures(res)
	}
	fmt.Fprintf(&b, "=== %s: %d SMs @ %.2f GHz, %.0f GB/s — calibration %s ===\n",
		dev.Name, dev.SMs, dev.ClockGHz, dev.DRAMBandwidthGBs, status)
	b.WriteString(microbench.Report(res))
	b.WriteString("\n")
	t := selectionSweep(dev)
	if o.markdown {
		b.WriteString(t.Markdown())
	} else {
		b.WriteString(t.Format())
	}
	b.WriteString("\n")
	out.text = b.String()
	return
}

// selectionSweep is the calibrate report's quick Table-6 analogue: the
// per-layer algorithm choice at N=32 from the analytic models alone
// (cold cache), showing where the fused F(2x2,3x3) kernel loses its
// edge on this device.
func selectionSweep(dev gpu.Device) *bench.Table {
	cache := tune.NewCache()
	t := &bench.Table{
		ID:     "calibrate-select",
		Title:  fmt.Sprintf("Per-layer algorithm selection from the analytic model (%s, N=32)", dev.Name),
		Header: []string{"Layer", "algo", "fused (ms)", "gemm (ms)", "nonfused (ms)"},
	}
	for _, l := range bench.Layers() {
		ch := tune.Select(cache, dev, l.Problem(32), 4)
		t.AddRow(
			l.Tag(32),
			string(ch.Algo),
			fmt.Sprintf("%.3f", ch.FusedSeconds*1e3),
			fmt.Sprintf("%.3f", ch.GEMMSeconds*1e3),
			fmt.Sprintf("%.3f", ch.NonfusedSeconds*1e3),
		)
	}
	t.Note("cold cache: fused times come from the Section 8.1 analytic model, not simulation")
	return t
}
