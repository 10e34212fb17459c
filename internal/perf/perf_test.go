package perf

import (
	"flag"
	"strings"
	"testing"
)

var (
	benchJSON = flag.String("benchjson", "",
		"collect the full suite (including the quick-sweep wall time) and write the report to this path")
	perfDiff = flag.String("perfdiff", "",
		"baseline BENCH_sim.json to gate against; empty skips the gate")
	timeTol = flag.Float64("perfdiff.timetol", 0.10,
		"fractional ns/op regression tolerance after calibration scaling")
	allocTol = flag.Float64("perfdiff.alloctol", 0.10,
		"fractional allocs/op regression tolerance")
)

// BenchmarkHotPaths exposes the suite to `go test -bench`. CI runs it
// with -benchtime=1x as a smoke test; interactive use gets real numbers
// with the default benchtime.
func BenchmarkHotPaths(b *testing.B) {
	for _, bm := range Benchmarks() {
		b.Run(bm.Name, bm.F)
	}
}

// TestWriteBenchJSON refreshes the committed baseline:
//
//	go test ./internal/perf -run TestWriteBenchJSON -benchjson ../../BENCH_sim.json -timeout 30m
func TestWriteBenchJSON(t *testing.T) {
	if *benchJSON == "" {
		t.Skip("no -benchjson path given")
	}
	r, err := Collect(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(*benchJSON); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (quick sweep %.1fs, %d benchmarks)", *benchJSON, r.QuickSweepSeconds, len(r.Results))
}

// TestPerfDiff is the regression gate:
//
//	go test ./internal/perf -run TestPerfDiff -perfdiff ../../BENCH_sim.json -timeout 30m
//
// CI passes a wider -perfdiff.timetol because shared runners are noisy
// even after calibration scaling; the allocation gate stays at its tight
// default everywhere.
func TestPerfDiff(t *testing.T) {
	if *perfDiff == "" {
		t.Skip("no -perfdiff baseline given")
	}
	base, err := ReadReport(*perfDiff)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Collect(false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Compare(base, cur, *timeTol, *allocTol) {
		t.Error(m)
	}
	// Targets added since the baseline was refreshed warn instead of
	// failing, so a new benchmark and its baseline can land in one PR.
	for _, m := range Unbaselined(base, cur) {
		t.Logf("warning: %s", m)
	}
	for _, c := range cur.Results {
		if b := base.find(c.Name); b != nil {
			t.Logf("%-20s %12.0f ns/op (baseline %12.0f)  %4d allocs/op (baseline %4d)",
				c.Name, c.NsPerOp, b.NsPerOp, c.AllocsPerOp, b.AllocsPerOp)
		}
	}
}

// TestCompare pins the gate's semantics with synthetic reports: the
// calibration ratio rescales timing limits, allocation regressions are
// caught unscaled, stale allocation baselines are caught, and
// disappeared benchmarks fail.
func TestCompare(t *testing.T) {
	base := &Report{Schema: "bench_sim/v1", Results: []Result{
		{Name: CalibrationName, NsPerOp: 1000},
		{Name: "sim/mainloop", NsPerOp: 500, AllocsPerOp: 100},
		{Name: "gone/bench", NsPerOp: 10},
	}}
	cur := &Report{Schema: "bench_sim/v1", Results: []Result{
		// Machine is 2x slower per the calibration anchor...
		{Name: CalibrationName, NsPerOp: 2000},
		// ...so 1050 ns/op is within 10% of the scaled 1000 baseline,
		// but 30 extra allocations are a regression regardless of speed.
		{Name: "sim/mainloop", NsPerOp: 1050, AllocsPerOp: 130},
	}}
	msgs := Compare(base, cur, 0.10, 0.10)
	if len(msgs) != 2 {
		t.Fatalf("want 2 regressions (allocs + missing bench), got %d: %v", len(msgs), msgs)
	}

	cur.Results[1].AllocsPerOp = 100
	cur.Results = append(cur.Results, Result{Name: "gone/bench", NsPerOp: 11})
	if msgs := Compare(base, cur, 0.10, 0.10); len(msgs) != 0 {
		t.Fatalf("want clean pass, got %v", msgs)
	}

	// Timing regression beyond the scaled tolerance.
	cur.Results[1].NsPerOp = 1200
	if msgs := Compare(base, cur, 0.10, 0.10); len(msgs) != 1 {
		t.Fatalf("want 1 timing regression, got %v", msgs)
	}
	cur.Results[1].NsPerOp = 1000

	// A row measuring under half its baseline less 2 is stale; at the
	// limit it still passes.
	for allocs, stale := range map[int64]bool{48: false, 47: true, 0: true} {
		cur.Results[1].AllocsPerOp = allocs
		msgs := Compare(base, cur, 0.10, 0.10)
		want := 0
		if stale {
			want = 1
		}
		if len(msgs) != want || stale && !strings.Contains(msgs[0], "stale baseline, re-record") {
			t.Errorf("%d allocs/op against baseline 100: %v", allocs, msgs)
		}
	}
}

// TestUnbaselined pins the warn-don't-fail contract for new targets: a
// benchmark measured now but absent from the baseline shows up in
// Unbaselined (and only there — Compare must not fail on it), while the
// calibration anchor never warns.
func TestUnbaselined(t *testing.T) {
	base := &Report{Schema: "bench_sim/v1", Results: []Result{
		{Name: CalibrationName, NsPerOp: 1000},
		{Name: "sim/mainloop", NsPerOp: 500},
	}}
	cur := &Report{Schema: "bench_sim/v1", Results: []Result{
		{Name: CalibrationName, NsPerOp: 1000},
		{Name: "sim/mainloop", NsPerOp: 500},
		{Name: "tune/staticprune", NsPerOp: 50},
	}}
	if msgs := Compare(base, cur, 0.10, 0.10); len(msgs) != 0 {
		t.Fatalf("a new target must not fail the gate, got %v", msgs)
	}
	warns := Unbaselined(base, cur)
	if len(warns) != 1 || !strings.Contains(warns[0], "tune/staticprune") {
		t.Fatalf("want one unbaselined warning for tune/staticprune, got %v", warns)
	}
	if warns := Unbaselined(base, base); len(warns) != 0 {
		t.Fatalf("identical reports must not warn, got %v", warns)
	}
}
