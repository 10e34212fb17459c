package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden quick-sweep table file")

const goldenPath = "testdata/quick_all.golden"

func runCapture(t *testing.T, argv ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(argv, &out, &errOut)
	return out.String(), errOut.String(), code
}

// TestQuickSweepGolden pins the full quick-sweep stdout — every table of
// every experiment — to a committed golden file, byte for byte. This is
// the simulator's determinism contract: any change to cycle accounting,
// table formatting, or experiment order shows up as a diff here. The
// sweep must also be independent of the worker count, so the sequential
// and concurrent schedules are both compared.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/winograd-bench -run TestQuickSweepGolden -update
func TestQuickSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick sweep takes several seconds")
	}
	seq, _, code := runCapture(t, "-quick", "-jobs", "1", "all")
	if code != 0 {
		t.Fatalf("sequential run exited %d", code)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, len(seq))
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if diff := firstDiff(string(golden), seq); diff != "" {
		t.Errorf("-jobs 1 stdout diverges from %s:\n%s", goldenPath, diff)
	}

	par, _, code := runCapture(t, "-quick", "-jobs", "4", "all")
	if code != 0 {
		t.Fatalf("concurrent run exited %d", code)
	}
	if diff := firstDiff(seq, par); diff != "" {
		t.Errorf("-jobs 4 stdout diverges from -jobs 1:\n%s", diff)
	}

	// The execution backend must be invisible in the tables: both
	// backends reproduce the same bytes (CI additionally checks them from
	// the real binary against the committed golden).
	for _, backend := range []string{"switch", "threaded"} {
		got, _, code := runCapture(t, "-quick", "-jobs", "4", "-backend", backend, "all")
		if code != 0 {
			t.Fatalf("-backend %s exited %d", backend, code)
		}
		if diff := firstDiff(seq, got); diff != "" {
			t.Errorf("-backend %s stdout diverges:\n%s", backend, diff)
		}
	}
}

const tuneGoldenPath = "testdata/tune_quick.golden"

// TestTuneQuickGolden pins the quick tune sweep the same way: stdout
// (report + selection tables) against a committed golden, -jobs 1 versus
// -jobs 4, and the experiment stores both schedules write are
// byte-identical to each other and to the committed store golden (the
// warm-rerun contract is TestTuneStoreGolden's).
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/winograd-bench -run TestTuneQuickGolden -update
func TestTuneQuickGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("tune sweep simulates a dozen kernels")
	}
	dir := t.TempDir()
	store1 := filepath.Join(dir, "jobs1.json")
	seq, _, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "1", "-store", store1, "tune")
	if code != 0 {
		t.Fatalf("sequential tune exited %d", code)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(tuneGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tuneGoldenPath, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", tuneGoldenPath, len(seq))
	}
	golden, err := os.ReadFile(tuneGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if diff := firstDiff(string(golden), seq); diff != "" {
		t.Errorf("-jobs 1 tune stdout diverges from %s:\n%s", tuneGoldenPath, diff)
	}

	store4 := filepath.Join(dir, "jobs4.json")
	par, _, code := runCapture(t, "-quick", "-budget", "6", "-jobs", "4", "-store", store4, "tune")
	if code != 0 {
		t.Fatalf("concurrent tune exited %d", code)
	}
	if diff := firstDiff(seq, par); diff != "" {
		t.Errorf("-jobs 4 tune stdout diverges from -jobs 1:\n%s", diff)
	}
	b1, err := os.ReadFile(store1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := os.ReadFile(store4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b4) {
		t.Error("tune store files differ between -jobs 1 and -jobs 4")
	}
	if want, err := os.ReadFile(storeGoldenPath); err != nil || !bytes.Equal(b1, want) {
		t.Errorf("-jobs 1 tune store diverges from %s (%v)", storeGoldenPath, err)
	}
}

const calibrateGoldenPath = "testdata/calibrate.golden"

// TestCalibrateGolden pins the calibrate subcommand the same way: the
// full all-device stdout (probe reports plus the analytic per-layer
// selection tables) against a committed golden, -jobs 1 versus -jobs 4,
// and the same bytes from both execution backends. A probe drifting
// from a device file fails the run outright (exit 1), so this is the
// repo-level anti-drift oracle wired into the CLI.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/winograd-bench -run TestCalibrateGolden -update
func TestCalibrateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration probes every registered device")
	}
	seq, _, code := runCapture(t, "-jobs", "1", "calibrate")
	if code != 0 {
		t.Fatalf("sequential calibrate exited %d", code)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(calibrateGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(calibrateGoldenPath, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", calibrateGoldenPath, len(seq))
	}
	golden, err := os.ReadFile(calibrateGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if diff := firstDiff(string(golden), seq); diff != "" {
		t.Errorf("-jobs 1 calibrate stdout diverges from %s:\n%s", calibrateGoldenPath, diff)
	}

	par, _, code := runCapture(t, "-jobs", "4", "calibrate")
	if code != 0 {
		t.Fatalf("concurrent calibrate exited %d", code)
	}
	if diff := firstDiff(seq, par); diff != "" {
		t.Errorf("-jobs 4 calibrate stdout diverges from -jobs 1:\n%s", diff)
	}

	sw, _, code := runCapture(t, "-jobs", "4", "-backend", "switch", "calibrate")
	if code != 0 {
		t.Fatalf("switch-backend calibrate exited %d", code)
	}
	if diff := firstDiff(seq, sw); diff != "" {
		t.Errorf("-backend switch calibrate stdout diverges:\n%s", diff)
	}

	// A single explicit -device narrows the run to that device's section
	// of the full report.
	one, _, code := runCapture(t, "-device", "K20X", "calibrate")
	if code != 0 {
		t.Fatalf("single-device calibrate exited %d", code)
	}
	if !strings.Contains(seq, one) {
		t.Error("-device k20x output is not a slice of the all-device output")
	}
	if strings.Contains(one, "V100") {
		t.Error("-device k20x output mentions V100")
	}

	// Unknown devices exit 2 and list the registry.
	_, errOut, code := runCapture(t, "-device", "gtx480", "calibrate")
	if code != 2 {
		t.Fatalf("unknown device: code=%d", code)
	}
	for _, want := range []string{"unknown device", "k20x", "v100"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stderr %q missing %q", errOut, want)
		}
	}
}

// firstDiff renders the first line-level difference between two texts
// (empty when identical), keeping failure output readable.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestListAndUnknown covers the no-argument listing and the unknown-id
// error path without running any simulation.
func TestListAndUnknown(t *testing.T) {
	out, _, code := runCapture(t)
	if code != 0 || !strings.HasPrefix(out, "experiments:") || !strings.Contains(out, "all        run everything") {
		t.Fatalf("listing: code=%d out=%q", code, out)
	}
	if strings.Contains(out, "\n  serve ") {
		t.Fatalf("listing names serving, which is winograd-serve's: %q", out)
	}
	out, errOut, code := runCapture(t, "nope", "table1", "nope", "alsobad")
	if code != 2 {
		t.Fatalf("unknown ids: code=%d", code)
	}
	if out != "" {
		t.Fatalf("unknown ids wrote to stdout: %q", out)
	}
	for _, want := range []string{`unknown experiment "nope"`, `unknown experiment "alsobad"`} {
		if !strings.Contains(errOut, want) {
			t.Fatalf("stderr %q missing %q", errOut, want)
		}
	}
	if strings.Count(errOut, `"nope"`) != 1 {
		t.Fatalf("duplicate unknown id reported twice: %q", errOut)
	}
}

// TestNoServingImports keeps the HTTP stack out of this binary. Every
// winograd-bench process initialises all it links, and net/http with
// crypto/tls costs as much start-up as everything else together; the
// server lives in cmd/winograd-serve.
func TestNoServingImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	deps := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	if !deps["repro/internal/bench"] {
		t.Fatalf("go list -deps printed no repro/internal/bench:\n%s", out)
	}
	for _, p := range []string{"net/http", "crypto/tls", "repro/internal/serve"} {
		if deps[p] {
			t.Errorf("winograd-bench depends on %s", p)
		}
	}
}
