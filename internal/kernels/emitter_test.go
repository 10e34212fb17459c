package kernels

import (
	"crypto/sha256"
	"fmt"
	"math"
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
// problem (BENCH_sim.json's kernels/source row) at 3 allocs/op: the
// text, queued-text and queue-item buffers, each sized once. The
// returned string is the text buffer itself. The budget may only
// tighten.
func TestSourceAllocsPinned(t *testing.T) {
	p := Problem{C: 64, K: 64, N: 32, H: 8, W: 8}
	source := func() {
		if _, err := Source(Ours(), p, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, source); n > 3 {
		t.Errorf("Source: %v allocs/op, want <= 3", n)
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

// appendfInts and appendfUint32s are the operand values the table test
// and the fuzz seeds spell: negatives, the edges of the 0..255 tables,
// the widths of hex immediates, and the ends of each type's range.
var (
	appendfInts = []int{math.MinInt, -4096, -256, -255, -16, -1, 0, 1, 9, 10, 15, 16, 99, 100,
		255, 256, 4095, 4096, 49152, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt}
	appendfUint32s = []uint32{0, 1, 9, 10, 15, 16, 255, 256, 0x1000, 0xfffffff, 0x10000000, 0xffffffff}
)

// checkAppendf fails t unless appendf spells format and args as
// fmt.Sprintf does, after existing text.
func checkAppendf(t *testing.T, format string, args ...any) {
	t.Helper()
	want := "x" + fmt.Sprintf(format, args...)
	if got := string(appendf([]byte("x"), format, args)); got != want {
		t.Errorf("appendf(%q, %v) = %q, want %q", format, args, got, want)
	}
}

// TestAppendfMatchesSprintf compares appendf's table and hex spellings
// of ints and uint32s, and its literal text, with fmt.Sprintf.
func TestAppendfMatchesSprintf(t *testing.T) {
	for _, v := range appendfInts {
		checkAppendf(t, "%d", v)
		checkAppendf(t, "%x", v)
	}
	for _, v := range appendfUint32s {
		checkAppendf(t, "%d", v)
		checkAppendf(t, "%x", v)
	}
	checkAppendf(t, "")
	checkAppendf(t, "EXIT;")
	checkAppendf(t, "%sSTS [R%d+0x%x], R%d;", "@!P0 ", 161, uint32(0x1080), 255)
	checkAppendf(t, "IMAD R%d, R%d, -0x%x, R%d;", 7, 6, 28, 2)
}

// checkWriters fails t unless each typed writer emits exactly what ins
// or flt emits for the format its comment gives, on emitters in the same
// weave state.
func checkWriters(t *testing.T, c ctrl, d, a, b int, off uint32, guard string) {
	t.Helper()
	for _, w := range []struct {
		name         string
		typed, fmted func(e *emitter)
	}{
		{"ffma", func(e *emitter) { e.ffma(c, d, a, b, false) },
			func(e *emitter) { e.flt(c, "FFMA R%d, R%d, R%d, R%d;", d, a, b, d) }},
		{"ffma.reuse", func(e *emitter) { e.ffma(c, d, a, b, true) },
			func(e *emitter) { e.flt(c, "FFMA R%d, R%d, R%d.reuse, R%d;", d, a, b, d) }},
		{"fadd", func(e *emitter) { e.fadd(c, d, a, b) },
			func(e *emitter) { e.ins(c, "FADD R%d, R%d, R%d;", d, a, b) }},
		{"fsub", func(e *emitter) { e.fsub(c, d, a, b) },
			func(e *emitter) { e.ins(c, "FADD R%d, R%d, -R%d;", d, a, b) }},
		{"zero", func(e *emitter) { e.zero(c, d) },
			func(e *emitter) { e.ins(c, "MOV R%d, RZ;", d) }},
		{"lds", func(e *emitter) { e.lds(c, d, a, off) },
			func(e *emitter) { e.ins(c, "LDS R%d, [R%d+0x%x];", d, a, off) }},
		{"store", func(e *emitter) { e.store(c, guard, "STG", a, off, b) },
			func(e *emitter) { e.ins(c, "%sSTG [R%d+0x%x], R%d;", guard, a, off, b) }},
	} {
		typed, fmted := newEmitter(7, 0), newEmitter(7, 0)
		for _, e := range []*emitter{typed, fmted} {
			e.floatCount = 6 // the next float instruction clears its yield flag
			e.queue(chLDS, 1, c0(), "NOP;")
		}
		w.typed(typed)
		w.fmted(fmted)
		if got, want := string(typed.b), string(fmted.b); got != want || typed.floatCount != fmted.floatCount {
			t.Errorf("%s: typed writer emits %q (float %d), format emits %q (float %d)",
				w.name, got, typed.floatCount, want, fmted.floatCount)
		}
	}
}

// TestWritersMatchFormats runs checkWriters over every register, on
// control codes with and without a wait mask, a barrier, two-digit
// stalls and the yield flag, and offsets on both sides of the hex table.
func TestWritersMatchFormats(t *testing.T) {
	ctrls := []ctrl{c0(), c0().st(6), c0().w(0x1).st(1), c0().w(0x3f).writeBar(0).readBar(5).st(15).noYield()}
	for r := 0; r < 256; r++ {
		c := ctrls[r%len(ctrls)]
		checkWriters(t, c, r, 255-r, (r*37)%256, appendfUint32s[r%len(appendfUint32s)], [...]string{"", "@P0 ", "@!P3 "}[r%3])
	}
}

// FuzzAppendf compares appendf with fmt.Sprintf on arbitrary ints and
// uint32s in both bases, and the typed writers with the formats they
// stand for on arbitrary registers, offsets and control codes.
func FuzzAppendf(f *testing.F) {
	for i, v := range appendfInts {
		u := appendfUint32s[i%len(appendfUint32s)]
		f.Add(v, u, uint8(i), uint8(255-i), uint8(i*37), uint8(i), uint8(i%16))
	}
	f.Fuzz(func(t *testing.T, v int, u uint32, d, a, b, wait, stall uint8) {
		checkAppendf(t, "R%d, 0x%x, %d;", v, v, u)
		checkAppendf(t, "%x%d", u, v)
		c := ctrl{wait: wait, rd: int8(a%7) - 1, wr: int8(b%7) - 1, yield: d%2 == 0, stall: int(stall % 16)}
		checkWriters(t, c, int(d), int(a), int(b), u, "@P1 ")
	})
}
