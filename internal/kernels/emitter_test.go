package kernels

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/turingas"
)

// sourceTextPin is the sha256 over the sourceTextMatrix sources, recorded
// from the Sprintf-based emitter before it was rewritten to append into
// reused buffers. The emitted text is the generator's contract with the
// assembler and the store keys, so any byte of drift fails here first.
const sourceTextPin = "34b637497449eedf71bfe10867a27c53acabb4ac5a4f401a1ab9d3c72a958413"

// TestSourceTextPinned checks that kernels.Source emits byte-identical
// text across three configurations (the paper kernel, a cuDNN-like bk32
// without P2R, and a bk64 yield-8 variant declaring 48 KB), a large and a
// small odd-edge problem, and both main-loop-only modes.
func TestSourceTextPinned(t *testing.T) {
	cfgs := []Config{
		Ours(),
		{BK: 32, YieldEvery: 7, LDGGap: 2, STSGap: 2, UseP2R: false},
		{BK: 64, YieldEvery: 8, LDGGap: 4, STSGap: 4, UseP2R: true, DeclaredSmem: 48 * 1024},
	}
	probs := []Problem{
		{C: 64, K: 64, N: 32, H: 56, W: 56},
		{C: 8, K: 64, N: 32, H: 6, W: 6},
	}
	h := sha256.New()
	for _, cfg := range cfgs {
		for _, p := range probs {
			for _, loop := range []bool{true, false} {
				src, err := Source(cfg, p, loop)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s|%s|%t|%d\n", cfg.Key(), p.Key(), loop, len(src))
				h.Write([]byte(src))
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sourceTextPin {
		t.Fatalf("generated source text drifted: sha256 %s, pinned %s", got, sourceTextPin)
	}
}

// TestGenerateMatchesSource runs the pinned matrix through generate,
// which emits each kernel into a recycled emitter in turn: every kernel
// must equal the one assembled from Source's text, so the previous
// kernel leaves nothing behind in the emitter it hands back.
func TestGenerateMatchesSource(t *testing.T) {
	for _, cfg := range []Config{Ours(), {BK: 32, YieldEvery: 7, LDGGap: 2, STSGap: 2}} {
		for _, p := range []Problem{{C: 64, K: 64, N: 32, H: 56, W: 56}, {C: 8, K: 64, N: 32, H: 6, W: 6}} {
			for _, loop := range []bool{true, false} {
				src, err := Source(cfg, p, loop)
				if err != nil {
					t.Fatal(err)
				}
				want, err := turingas.AssembleKernel(src)
				if err != nil {
					t.Fatal(err)
				}
				got, err := generate(cfg, p, loop)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s loop=%t: generate differs from assembling Source", cfg.Key(), p.Key(), loop)
				}
			}
		}
	}
}

// TestSourceAllocsPinned pins kernels.Source on the perf suite's
// problem (BENCH_sim.json's kernels/source row) at 8 allocs/op: the
// text, queued-text and queue-item buffers, each sized once, and the
// layout's five register tables. The returned string is the text
// buffer itself. The budget may only tighten.
func TestSourceAllocsPinned(t *testing.T) {
	p := Problem{C: 64, K: 64, N: 32, H: 8, W: 8}
	source := func() {
		if _, err := Source(Ours(), p, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, source); n > 8 {
		t.Errorf("Source: %v allocs/op, want <= 8", n)
	}
}

// TestCtrlAppend pins the control-code renderer against the Sprintf
// spelling the assembler grammar documents: two-digit hex wait mask or
// "--", barrier index or "-", Y or "-", decimal stall, appended after
// existing text. The grid covers wait masks 0, 0x01 and 0x3f, every
// barrier and none, yield on and off, and stalls 1 and 15.
func TestCtrlAppend(t *testing.T) {
	cs := []ctrl{c0()}
	for _, wait := range []uint8{0, 0x01, 0x3f} {
		for rd := int8(-1); rd <= 5; rd++ {
			for wr := int8(-1); wr <= 5; wr++ {
				for _, yield := range []bool{true, false} {
					for _, stall := range []int{1, 15} {
						cs = append(cs, ctrl{wait: wait, rd: rd, wr: wr, yield: yield, stall: stall})
					}
				}
			}
		}
	}
	bar := func(v int8) string {
		if v < 0 {
			return "-"
		}
		return fmt.Sprint(v)
	}
	for _, c := range cs {
		w, y := "--", "-"
		if c.wait != 0 {
			w = fmt.Sprintf("%02x", c.wait)
		}
		if c.yield {
			y = "Y"
		}
		want := fmt.Sprintf("x %s:%s:%s:%s:%d", w, bar(c.rd), bar(c.wr), y, c.stall)
		if got := string(c.appendTo([]byte("x "))); got != want {
			t.Errorf("%+v renders %q, want %q", c, got, want)
		}
	}
}
