package turingas

import (
	"strings"
	"testing"

	"repro/internal/sass"
)

// TestControlPrefixLanguage pins the control-prefix grammar parseCtrl
// accepts: the wait mask is hex digits (any case, leading zeros) of at
// most 0x3f or "--"; each barrier is "-" or an optionally signed decimal
// in 0..5; the yield flag is "Y" or "-"; the stall is an optionally
// signed decimal in 0..15. Rejected rows name the field the error
// reports.
func TestControlPrefixLanguage(t *testing.T) {
	ctrl := func(wait uint8, rd, wr int8, yield bool, stall uint8) sass.Ctrl {
		return sass.Ctrl{WaitMask: wait, ReadBar: rd, WriteBar: wr, Yield: yield, Stall: stall}
	}
	const no = sass.NoBar
	accepted := []struct {
		tok  string
		want sass.Ctrl
	}{
		{"--:-:-:Y:1", ctrl(0, no, no, true, 1)},
		{"3f:5:0:-:15", ctrl(0x3f, 5, 0, false, 15)},
		{"3:-:-:Y:1", ctrl(0x03, no, no, true, 1)},
		{"003f:-:-:Y:1", ctrl(0x3f, no, no, true, 1)},
		{"3F:-:-:Y:1", ctrl(0x3f, no, no, true, 1)},
		{"00:-:-:Y:1", ctrl(0, no, no, true, 1)},
		{"--:-:-:Y:+5", ctrl(0, no, no, true, 5)},
		{"--:-:-:Y:-0", ctrl(0, no, no, true, 0)},
		{"--:-:-:Y:015", ctrl(0, no, no, true, 15)},
		{"--:+1:-:Y:1", ctrl(0, 1, no, true, 1)},
		{"--:-:-0:Y:1", ctrl(0, no, 0, true, 1)},
		{"--:-:05:-:0", ctrl(0, no, 5, false, 0)},
	}
	for _, tc := range accepted {
		got, err := parseCtrl(tc.tok)
		if err != nil {
			t.Errorf("parseCtrl(%q): %v, want %+v", tc.tok, err, tc.want)
		} else if got != tc.want {
			t.Errorf("parseCtrl(%q) = %+v, want %+v", tc.tok, got, tc.want)
		}
	}
	rejected := []struct{ tok, err string }{
		{"40:-:-:Y:1", "bad wait mask"},
		{"7f:-:-:Y:1", "bad wait mask"},
		{"zz:-:-:Y:1", "bad wait mask"},
		{"0x3:-:-:Y:1", "bad wait mask"},
		{"+3:-:-:Y:1", "bad wait mask"},
		{"-:-:-:Y:1", "bad wait mask"},
		{":-:-:Y:1", "bad wait mask"},
		{"--:6:-:Y:1", "bad read barrier"},
		{"--:-2:-:Y:1", "bad read barrier"},
		{"--::-:Y:1", "bad read barrier"},
		{"--:+:-:Y:1", "bad read barrier"},
		{"--:-:6:Y:1", "bad write barrier"},
		{"--:-:--:Y:1", "bad write barrier"},
		{"--:-:-:y:1", "bad yield flag"},
		{"--:-:-:YY:1", "bad yield flag"},
		{"--:-:-::1", "bad yield flag"},
		{"--:-:-:Y:16", "bad stall count"},
		{"--:-:-:Y:-1", "bad stall count"},
		{"--:-:-:Y:", "bad stall count"},
		{"--:-:-:Y:1_0", "bad stall count"},
		{"--:-:-:Y: 1", "bad stall count"},
		{"--:-:Y:1", "wants 5 fields"},
		{"--:-:-:Y:1:1", "wants 5 fields"},
		{"zz:-:-:Y:1:1", "wants 5 fields"},
		{"", "wants 5 fields"},
	}
	for _, tc := range rejected {
		got, err := parseCtrl(tc.tok)
		if err == nil {
			t.Errorf("parseCtrl(%q) = %+v, want an error", tc.tok, got)
		} else if !strings.Contains(err.Error(), tc.err) {
			t.Errorf("parseCtrl(%q): %v, want %q", tc.tok, err, tc.err)
		}
	}
}

// TestControlPrefixDetection pins when an instruction line carries a
// control prefix: its first space-delimited token holds exactly four
// colons. Any run of whitespace may follow the prefix's space; a tab in
// place of that space leaves the stall field unparseable.
func TestControlPrefixDetection(t *testing.T) {
	cases := []struct {
		line string
		want sass.Ctrl
		ok   bool
	}{
		{"01:-:2:Y:4  EXIT;", sass.Ctrl{WaitMask: 1, ReadBar: sass.NoBar, WriteBar: 2, Yield: true, Stall: 4}, true},
		{"01:-:2:Y:4 \t EXIT ;", sass.Ctrl{WaitMask: 1, ReadBar: sass.NoBar, WriteBar: 2, Yield: true, Stall: 4}, true},
		{"EXIT;", sass.DefaultCtrl(), true},
		{"01:-:2:Y:4\tEXIT;", sass.Ctrl{}, false},
		{"01:-:2:Y:4;", sass.Ctrl{}, false},
		{"01:-:2:Y EXIT;", sass.Ctrl{}, false},
	}
	for _, tc := range cases {
		k, err := AssembleKernel(".kernel c\n" + tc.line + "\n.endkernel\n")
		if !tc.ok {
			if err == nil {
				t.Errorf("%q assembled", tc.line)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
			continue
		}
		insts, err := k.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if insts[0].Ctrl != tc.want {
			t.Errorf("%q: ctrl %+v, want %+v", tc.line, insts[0].Ctrl, tc.want)
		}
	}
}

// FuzzParseCtrl checks that the control-code render/parse pair is a
// fixed point: any valid sass.Ctrl must survive String -> parseCtrl ->
// String unchanged. The fuzzer drives the raw field bytes and the test
// clamps them into the valid ranges the ISA defines (wait mask 6 bits,
// barriers -1..5, stall 0..15), so every generated Ctrl is one the
// assembler and generator could legitimately emit.
func FuzzParseCtrl(f *testing.F) {
	f.Add(uint8(0), int8(-1), int8(-1), true, uint8(1))    // --:-:-:Y:1
	f.Add(uint8(0x3f), int8(5), int8(0), false, uint8(15)) // 3f:5:0:-:15
	f.Add(uint8(0x01), int8(-1), int8(2), true, uint8(0))  // 01:-:2:Y:0
	f.Add(uint8(0x20), int8(0), int8(5), false, uint8(4))
	f.Fuzz(func(t *testing.T, wait uint8, readBar, writeBar int8, yield bool, stall uint8) {
		clampBar := func(b int8) int8 {
			// Map an arbitrary byte onto the legal -1..5 range.
			v := int8(((int(b)%7)+7)%7) - 1
			return v
		}
		c := sass.Ctrl{
			WaitMask: wait & 0x3f,
			ReadBar:  clampBar(readBar),
			WriteBar: clampBar(writeBar),
			Yield:    yield,
			Stall:    stall & 0xf,
		}
		s := c.String()
		got, err := parseCtrl(s)
		if err != nil {
			t.Fatalf("parseCtrl(%q) = %v for valid ctrl %+v", s, err, c)
		}
		if got != c {
			t.Fatalf("round trip changed ctrl: %+v -> %q -> %+v", c, s, got)
		}
		if got.String() != s {
			t.Fatalf("String not a fixed point: %q -> %q", s, got.String())
		}
	})
}

// FuzzParseCtrlRaw feeds parseCtrl arbitrary strings: it must never
// panic, and whatever it accepts must render, through String, to a
// prefix that parses back to the same Ctrl.
func FuzzParseCtrlRaw(f *testing.F) {
	for _, s := range []string{
		"--:-:-:Y:1", "3f:5:0:-:15", "003F:+1:-0:Y:015", "--:-:-:Y:-0",
		"40:-:-:Y:1", "--:-:-:y:1", "--:-:Y:1", "--:-:-:Y:1:1", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := parseCtrl(s)
		if err != nil {
			return
		}
		back, err := parseCtrl(c.String())
		if err != nil {
			t.Fatalf("parseCtrl(%q) = %+v, whose String %q is rejected: %v", s, c, c.String(), err)
		}
		if back != c {
			t.Fatalf("parseCtrl(%q) = %+v, but its String %q parses to %+v", s, c, c.String(), back)
		}
	})
}
