package prof

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/turingas"
)

var update = flag.Bool("update", false, "rewrite the golden Chrome trace")

// tinySrc is a minimal but representative kernel: special-register
// reads, a global load/store pair with dependency barriers, FFMA work,
// and an immediate stall — enough to exercise every report section while
// keeping the trace golden small.
const tinySrc = `
.kernel tiny
.params 8
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  SHF.L R1, R0, 0x2;
--:-:-:Y:6  MOV R2, c[0x0][0x160];
--:-:-:Y:6  IADD3 R2, R2, R1, RZ;
--:-:0:-:2  LDG R4, [R2];
01:-:-:Y:4  FFMA R5, R4, R4, R4;
--:-:-:Y:4  FFMA R5, R5, R5, R4;
--:-:-:Y:6  MOV R6, c[0x0][0x164];
--:-:-:Y:6  IADD3 R6, R6, R1, RZ;
--:1:-:-:2  STG [R6], R5;
--:-:-:Y:5  EXIT;
.endkernel
`

// profileTiny runs the tiny kernel with a timeline-collecting profiler
// on two blocks of one SM and returns the launch profile.
func profileTiny(t *testing.T) *gpu.LaunchProfile {
	t.Helper()
	k, err := turingas.AssembleKernel(tinySrc)
	if err != nil {
		t.Fatal(err)
	}
	p := gpu.NewProfiler()
	p.Timeline = true
	s := gpu.NewSim(gpu.RTX2070())
	s.Prof = p
	in := s.Alloc(4 * 64)
	out := s.Alloc(4 * 64)
	xs := make([]float32, 64)
	for i := range xs {
		xs[i] = float32(i) * 0.25
	}
	s.WriteF32(in.Addr, xs)
	if _, err := s.Launch(k, gpu.LaunchOpts{
		Grid: 2, Block: 32, OneSM: true,
		Params: []uint32{in.Addr, out.Addr},
	}); err != nil {
		t.Fatal(err)
	}
	return p.Launches[0]
}

// TestTextReport checks the report renders every section and annotates
// the full listing.
func TestTextReport(t *testing.T) {
	lp := profileTiny(t)
	var b bytes.Buffer
	if err := Text(&b, lp); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"== profile: tiny ==",
		"warp-cycle attribution",
		"issue-slot attribution",
		"in-flight LDGs",
		"annotated listing",
		"dep-barrier",
		"LDG R4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// One annotated line per instruction.
	if got := strings.Count(out[strings.Index(out, "annotated listing"):], "\n") - 1; got != len(lp.Insts) {
		t.Errorf("annotated listing has %d lines, want %d", got, len(lp.Insts))
	}
	if err := Text(&b, nil); err == nil {
		t.Error("Text(nil) did not error")
	}
}

// TestChromeTraceGolden pins the exported trace for the tiny kernel byte
// for byte — the determinism contract for the trace path — and checks
// it is loadable JSON in the trace-event shape.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/gpu/prof -run TestChromeTraceGolden -update
func TestChromeTraceGolden(t *testing.T) {
	lp := profileTiny(t)
	var b bytes.Buffer
	if err := WriteChromeTrace(&b, lp); err != nil {
		t.Fatal(err)
	}

	const golden = "testdata/tiny_trace.golden"
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, b.Len())
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(want, b.Bytes()) {
		t.Errorf("trace diverges from %s (%d vs %d bytes); regenerate with -update if intentional",
			golden, len(want), b.Len())
	}

	// The trace must load as Chrome's JSON-with-metadata format.
	var tr struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var runs, stalls, counters, meta int
	for _, e := range tr.TraceEvents {
		switch {
		case e.Ph == "M":
			meta++
		case e.Ph == "C":
			counters++
		case e.Ph == "X" && e.Name == "run":
			runs++
		case e.Ph == "X":
			stalls++
		}
	}
	if meta == 0 || counters == 0 || runs == 0 || stalls == 0 {
		t.Errorf("trace lacks event kinds: meta=%d counters=%d runs=%d stalls=%d",
			meta, counters, runs, stalls)
	}
}
