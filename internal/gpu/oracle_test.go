package gpu

import (
	"strings"
	"testing"
)

// A clean write/barrier/read round trip: the oracle must log the
// accesses with correct phases and find nothing.
const oracleCleanSrc = `
.kernel clean
.smem 256
.params 0
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  SHF.L R1, R0, 0x2;
--:1:-:-:2  STS [R1], R0;
02:-:-:Y:5  BAR.SYNC;
--:-:2:-:2  LDS R2, [R1];
04:-:-:Y:5  EXIT;
.endkernel
`

// The same round trip with the barrier removed and the read targeting
// the other warp's bytes: a concrete cross-warp read-write race.
const oracleRaceSrc = `
.kernel race
.smem 512
.params 0
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  SHF.L R1, R0, 0x2;
--:-:-:Y:6  LOP3 R2, R1, 0x80, RZ, 0x3c;
--:1:-:-:2  STS [R1], R0;
02:-:2:-:2  LDS R3, [R2];
04:-:-:Y:5  EXIT;
.endkernel
`

// Every thread stores 0x100 bytes past the 256-byte declaration.
const oracleOOBSrc = `
.kernel oob
.smem 256
.params 0
--:-:0:-:1  S2R R0, SR_TID.X;
01:-:-:Y:6  SHF.L R1, R0, 0x2;
--:1:-:-:2  STS [R1+0x100], R0;
02:-:-:Y:5  EXIT;
.endkernel
`

// BAR.SYNC guarded by a predicate that diverges inside each warp.
const oracleDivBarSrc = `
.kernel divbar
.params 0
--:-:0:-:1  S2R R0, SR_LANEID;
01:-:-:Y:6  ISETP.LT P0, R0, 0x10;
--:-:-:Y:5  @P0 BAR.SYNC;
--:-:-:Y:5  EXIT;
.endkernel
`

func findingKinds(fs []OracleFinding) map[string]bool {
	m := map[string]bool{}
	for _, f := range fs {
		m[f.Kind] = true
	}
	return m
}

func TestOracleCleanKernel(t *testing.T) {
	k := assemble(t, oracleCleanSrc)
	s := NewSim(RTX2070())
	s.Oracle = &SmemOracle{}
	if _, err := s.Launch(k, LaunchOpts{Grid: 2, Block: 64}); err != nil {
		t.Fatal(err)
	}
	if fs := s.Oracle.Findings(); len(fs) != 0 {
		t.Fatalf("clean kernel produced findings: %v", fs)
	}
	recs := s.Oracle.Records()
	// 2 blocks x 64 threads x (1 STS + 1 LDS).
	if len(recs) != 2*64*2 {
		t.Fatalf("got %d records, want %d", len(recs), 2*64*2)
	}
	for _, r := range recs {
		wantPhase := 0
		if !r.Write {
			wantPhase = 1 // the LDS runs after the barrier
		}
		if r.Phase != wantPhase {
			t.Fatalf("record %+v: phase %d, want %d", r, r.Phase, wantPhase)
		}
		if want := uint32((r.Warp*32 + r.Lane) * 4); r.Addr != want {
			t.Fatalf("record %+v: addr 0x%x, want 0x%x", r, r.Addr, want)
		}
	}
}

func TestOracleFlagsConcreteRace(t *testing.T) {
	k := assemble(t, oracleRaceSrc)
	s := NewSim(RTX2070())
	s.Oracle = &SmemOracle{}
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 64}); err != nil {
		t.Fatal(err)
	}
	fs := s.Oracle.Findings()
	if !findingKinds(fs)["smem-race"] {
		t.Fatalf("want a smem-race finding, got %v", fs)
	}
	for _, f := range fs {
		if f.Kind == "smem-race" {
			if f.PC != 4 || f.OtherPC != 3 {
				t.Fatalf("race at pc %d / other %d, want 4 / 3: %v", f.PC, f.OtherPC, f)
			}
		}
	}
	// Reset empties the log.
	s.Oracle.Reset()
	if len(s.Oracle.Findings()) != 0 || len(s.Oracle.Records()) != 0 {
		t.Fatal("Reset did not clear the oracle")
	}
}

func TestOracleFlagsOutOfBounds(t *testing.T) {
	k := assemble(t, oracleOOBSrc)
	s := NewSim(RTX2070())
	s.Oracle = &SmemOracle{}
	_, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 32})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("launch error = %v, want out-of-bounds rejection", err)
	}
	fs := s.Oracle.Findings()
	if !findingKinds(fs)["smem-bounds"] {
		t.Fatalf("want a smem-bounds finding, got %v", fs)
	}
	for _, f := range fs {
		if f.Kind == "smem-bounds" && f.PC != 2 {
			t.Fatalf("bounds finding at pc %d, want 2: %v", f.PC, f)
		}
	}
}

func TestOracleFlagsDivergentBarrier(t *testing.T) {
	k := assemble(t, oracleDivBarSrc)
	s := NewSim(RTX2070())
	s.Oracle = &SmemOracle{}
	if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 64}); err != nil {
		t.Fatal(err)
	}
	fs := s.Oracle.Findings()
	if !findingKinds(fs)["bar-divergent"] {
		t.Fatalf("want a bar-divergent finding, got %v", fs)
	}
	for _, f := range fs {
		if f.Kind == "bar-divergent" && f.PC != 2 {
			t.Fatalf("divergence finding at pc %d, want 2: %v", f.PC, f)
		}
	}
}

// TestOracleOffCostsNothing pins the opt-in contract: with Oracle nil
// the launch takes the exact same path (this is a compile-time property
// of the nil checks, but the test documents the invariant and catches a
// hook that starts recording unconditionally).
func TestOracleOffCostsNothing(t *testing.T) {
	k := assemble(t, oracleCleanSrc)
	s := NewSim(RTX2070())
	m1, err := s.Launch(k, LaunchOpts{Grid: 2, Block: 64})
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSim(RTX2070())
	s2.Oracle = &SmemOracle{}
	m2, err := s2.Launch(k, LaunchOpts{Grid: 2, Block: 64})
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles || m1.Issued != m2.Issued {
		t.Fatalf("oracle changed simulated results: %d/%d cycles, %d/%d issued",
			m1.Cycles, m2.Cycles, m1.Issued, m2.Issued)
	}
}

// TestOracleBothBackends checks the hooks sit on the shared issue path:
// the interpreter and threaded backends must produce identical logs.
func TestOracleBothBackends(t *testing.T) {
	k := assemble(t, oracleRaceSrc)
	logs := make([][]OracleRecord, 2)
	for i, b := range []Backend{BackendSwitch, BackendThreaded} {
		s := NewSim(RTX2070())
		s.Backend = b
		s.Oracle = &SmemOracle{}
		if _, err := s.Launch(k, LaunchOpts{Grid: 1, Block: 64}); err != nil {
			t.Fatal(err)
		}
		logs[i] = s.Oracle.Records()
	}
	if len(logs[0]) != len(logs[1]) {
		t.Fatalf("backends logged %d vs %d records", len(logs[0]), len(logs[1]))
	}
	for i := range logs[0] {
		if logs[0][i] != logs[1][i] {
			t.Fatalf("record %d differs between backends: %+v vs %+v", i, logs[0][i], logs[1][i])
		}
	}
}

// Reset clears the log between launches.
func (o *SmemOracle) Reset() {
	o.mu.Lock()
	o.records = o.records[:0]
	o.findings = o.findings[:0]
	o.mu.Unlock()
}
