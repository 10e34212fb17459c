package kernels

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"repro/internal/cubin"
	"repro/internal/turingas"
)

// ctrl renders a control-code prefix for the assembler.
type ctrl struct {
	wait   uint8
	rd, wr int8 // -1 = none
	yield  bool
	stall  int
}

func c0() ctrl { return ctrl{rd: -1, wr: -1, yield: true, stall: 1} }

func (c ctrl) w(mask uint8) ctrl { c.wait |= mask; return c }
func (c ctrl) writeBar(b int) ctrl {
	c.wr = int8(b)
	return c
}
func (c ctrl) readBar(b int) ctrl {
	c.rd = int8(b)
	return c
}
func (c ctrl) st(n int) ctrl { c.stall = n; return c }
func (c ctrl) noYield() ctrl { c.yield = false; return c }

// appendTo renders the control code as the assembler's
// wait:read:write:yield:stall prefix ("--" / "-" for an empty wait mask or
// barrier slot) onto b, spelling each field by lookup.
func (c ctrl) appendTo(b []byte) []byte {
	w0, w1 := byte('-'), byte('-')
	if c.wait != 0 {
		w0, w1 = hexDigits[c.wait>>4], hexDigits[c.wait&0xf]
	}
	y := byte('-')
	if c.yield {
		y = 'Y'
	}
	b = append(b, w0, w1, ':', barDigit(c.rd), ':', barDigit(c.wr), ':', y, ':')
	return append(b, decimals[c.stall]...)
}

// barDigit spells a barrier slot: one of the six barriers, or '-' for
// none.
func barDigit(bar int8) byte {
	if bar < 0 {
		return '-'
	}
	return "012345"[bar]
}

// Weave channels. The LDS channel carries the per-step fragment prefetch;
// the LDG channel carries the next iteration's global loads (and their
// predicate bookkeeping); the STS channel is used in the store phase.
const (
	chLDS = iota
	chLDG
	chSTS
	numChannels
)

type auxInst struct {
	c          ctrl
	start, end int // operand text, a span of emitter.aux
	gap        int // minimum float instructions since the previous insert
}

type channelState struct {
	items []auxInst // items[head:] are queued; the backing array is reused once drained
	head  int
	since int
}

// emitter accumulates assembler source and implements the instruction
// weaving behind the paper's Section 6 studies: a primary float-pipe
// stream with auxiliary memory instructions inserted every N float
// instructions (LDGn / STSn), and the yield-flag strategy applied to the
// float stream (Natural / every-7 / every-8).
//
// Instruction text is formatted by appendf straight into one buffer,
// sized once per kernel from the generator's estimate, and queued
// auxiliary text into a second one, so a kernel costs a handful of
// allocations in all rather than some per instruction.
type emitter struct {
	b          []byte
	aux        []byte // queued instruction text; reset when every channel is empty
	floatCount int
	yieldEvery int
	ch         [numChannels]channelState
}

// newEmitter returns an emitter whose text buffer holds size bytes
// before it first grows.
func newEmitter(yieldEvery, size int) *emitter {
	e := &emitter{b: make([]byte, 0, size), aux: make([]byte, 0, 4<<10), yieldEvery: yieldEvery}
	const depth = 64 // deeper than any generator queues
	items := make([]auxInst, numChannels*depth)
	for i := range e.ch {
		e.ch[i].items = items[i*depth : i*depth : (i+1)*depth]
		e.ch[i].since = 1 << 20 // first item inserts immediately
	}
	return e
}

// reset returns e to the state newEmitter leaves it in, keeping its
// buffers.
func (e *emitter) reset(yieldEvery int) {
	e.b, e.aux, e.floatCount, e.yieldEvery = e.b[:0], e.aux[:0], 0, yieldEvery
	for i := range e.ch {
		e.ch[i] = channelState{items: e.ch[i].items[:0], since: 1 << 20}
	}
}

// emitters recycles the emitters of kernels that are assembled as soon
// as they are emitted; their text buffers start at the largest kernel's
// size.
var emitters = sync.Pool{New: func() any { return newEmitter(0, 96<<10) }}

// pooledEmitter returns a recycled emitter, empty, for a kernel that
// assemble finishes.
func pooledEmitter(yieldEvery int) *emitter {
	e := emitters.Get().(*emitter)
	e.reset(yieldEvery)
	return e
}

// assemble assembles the text and returns e to the pool. The text is
// dead once AssembleKernel returns, since the kernel keeps no reference
// to its source; e must not be used afterwards.
func (e *emitter) assemble() (*cubin.Kernel, error) {
	k, err := turingas.AssembleKernel(unsafe.String(unsafe.SliceData(e.b), len(e.b)))
	emitters.Put(e)
	return k, err
}

// raw emits a directive or label, formatted as by appendf.
func (e *emitter) raw(format string, args ...any) {
	e.b = append(appendf(e.b, format, args), '\n')
}

// ins emits one instruction with its control code, bypassing the weaver.
func (e *emitter) ins(c ctrl, format string, args ...any) {
	e.b = append(c.appendTo(e.b), "  "...)
	e.b = append(appendf(e.b, format, args), '\n')
}

// Typed writers for the epilogue's and prologue's most frequent
// instructions. Each spells its line as ins does with the format in its
// comment, without scanning one.

// fadd emits "FADD Rd, Ra, Rb;".
func (e *emitter) fadd(c ctrl, d, a, b int) { e.fadd3(c, d, a, ", ", b) }

// fsub emits "FADD Rd, Ra, -Rb;".
func (e *emitter) fsub(c ctrl, d, a, b int) { e.fadd3(c, d, a, ", -", b) }

func (e *emitter) fadd3(c ctrl, d, a int, sep string, b int) {
	t := appendReg(append(c.appendTo(e.b), "  FADD "...), d)
	t = appendReg(append(t, ", "...), a)
	e.b = appendReg(append(t, sep...), b)
	e.end()
}

// zero emits "MOV Rd, RZ;".
func (e *emitter) zero(c ctrl, d int) {
	e.b = append(appendReg(append(c.appendTo(e.b), "  MOV "...), d), ", RZ"...)
	e.end()
}

// lds emits "LDS Rd, [Rbase+0xoff];".
func (e *emitter) lds(c ctrl, d, base int, off uint32) {
	t := appendReg(append(c.appendTo(e.b), "  LDS "...), d)
	e.b = appendAddr(append(t, ", "...), base, off)
	e.end()
}

// store emits "guard op [Rbase+0xoff], Rs;", guard being "" or a
// predicate with its trailing space.
func (e *emitter) store(c ctrl, guard, op string, base int, off uint32, s int) {
	t := append(append(append(c.appendTo(e.b), ' ', ' '), guard...), op...)
	t = appendAddr(append(t, ' '), base, off)
	e.b = appendReg(append(t, ", "...), s)
	e.end()
}

// end closes an instruction line.
func (e *emitter) end() { e.b = append(e.b, ';', '\n') }

// appendReg appends register r's name.
func appendReg(b []byte, r int) []byte { return append(append(b, 'R'), decimals[r]...) }

// appendAddr appends the memory operand [Rbase+0xoff].
func appendAddr(b []byte, base int, off uint32) []byte {
	b = appendReg(append(b, '['), base)
	return append(appendUint32(append(b, "+0x"...), off, true), ']')
}

// insAux emits a queued instruction.
func (e *emitter) insAux(a auxInst) {
	e.b = append(a.c.appendTo(e.b), "  "...)
	e.b = append(e.b, e.aux[a.start:a.end]...)
	e.b = append(e.b, '\n')
}

// flt emits a float-pipe instruction: it ticks the weave channels and
// applies the yield strategy.
func (e *emitter) flt(c ctrl, format string, args ...any) {
	e.ins(e.yield(c), format, args...)
	e.weave()
}

// ffma emits the float-pipe instruction "FFMA Rd, Ra, Rb[.reuse], Rd;"
// as flt would: the main loop is 1,024 of them per kernel.
func (e *emitter) ffma(c ctrl, d, a, b int, reuse bool) {
	t := appendReg(append(e.yield(c).appendTo(e.b), "  FFMA "...), d)
	t = appendReg(append(t, ", "...), a)
	t = appendReg(append(t, ", "...), b)
	if reuse {
		t = append(t, ".reuse"...)
	}
	e.b = appendReg(append(t, ", "...), d)
	e.end()
	e.weave()
}

// yield counts a float instruction and clears its yield flag where the
// strategy says to.
func (e *emitter) yield(c ctrl) ctrl {
	e.floatCount++
	if e.yieldEvery > 0 && e.floatCount%e.yieldEvery == 0 {
		c = c.noYield()
	}
	return c
}

// weave ticks the weave channels after a float instruction and emits
// what is due.
func (e *emitter) weave() {
	for i := range e.ch {
		e.ch[i].since++
	}
	e.drain()
}

// queue schedules an instruction on a weave channel. gap is the minimum
// number of float instructions between this insert and the previous one
// on the same channel (gap 0 chains it to the preceding item).
func (e *emitter) queue(channel int, gap int, c ctrl, format string, args ...any) {
	if !e.pendingAux() {
		e.aux = e.aux[:0]
	}
	start := len(e.aux)
	e.aux = appendf(e.aux, format, args)
	e.ch[channel].items = append(e.ch[channel].items,
		auxInst{c: c, start: start, end: len(e.aux), gap: gap})
}

func (e *emitter) drain() {
	for i := range e.ch {
		ch := &e.ch[i]
		for ch.head < len(ch.items) && ch.since >= ch.items[ch.head].gap {
			a := ch.items[ch.head]
			ch.head++
			e.insAux(a)
			if a.gap > 0 {
				ch.since = 0
			}
		}
		if ch.head == len(ch.items) {
			ch.items, ch.head = ch.items[:0], 0
		}
	}
}

// flush emits everything still queued on a channel, back to back.
func (e *emitter) flush(channel int) {
	ch := &e.ch[channel]
	for _, a := range ch.items[ch.head:] {
		e.insAux(a)
	}
	ch.items, ch.head = ch.items[:0], 0
	ch.since = 1 << 20
}

// pendingAux reports whether any channel still has queued instructions.
func (e *emitter) pendingAux() bool {
	for i := range e.ch {
		if len(e.ch[i].items) > 0 {
			return true
		}
	}
	return false
}

// source returns the text without copying it, as strings.Builder does,
// and drops the buffer, so no later write can reach the returned string.
func (e *emitter) source() string {
	s := unsafe.String(unsafe.SliceData(e.b), len(e.b))
	e.b = nil
	return s
}

// appendf appends format to b with each %d, %x and %s verb replaced by
// the next argument, spelled as fmt spells it: an int or uint32 in
// decimal or lowercase hex, or a string. Those are all the generators
// pass. Anything else — another verb, a flag or width, an argument of
// another type, too few or too many arguments — panics, since every
// format is a literal the tests run. args does not escape, so callers
// box their operands on the stack.
func appendf(b []byte, format string, args []any) []byte {
	rest, n := format, 0
	for {
		i := strings.IndexByte(rest, '%')
		if i < 0 {
			break
		}
		b = append(b, rest[:i]...)
		if i+1 == len(rest) || n == len(args) {
			panic(badFormat(format))
		}
		verb, arg := rest[i+1], args[n]
		rest = rest[i+2:]
		n++
		hex := false
		switch verb {
		case 's':
			s, ok := arg.(string)
			if !ok {
				panic(badFormat(format))
			}
			b = append(b, s...)
			continue
		case 'x':
			hex = true
		case 'd':
		default:
			panic(badFormat(format))
		}
		switch v := arg.(type) {
		case int:
			b = appendInt(b, v, hex)
		case uint32:
			b = appendUint32(b, v, hex)
		default:
			panic(badFormat(format))
		}
	}
	if n != len(args) {
		panic(badFormat(format))
	}
	return append(b, rest...)
}

func badFormat(format string) string {
	return "kernels: emitter cannot format " + strconv.Quote(format)
}

// Operand spelling. Registers run from 0 to 255 and most immediates are
// small, so the spellings of 0..255 are looked up in tables built once,
// in one buffer each. appendHex spells larger hex values and strconv
// the rest.
var decimals, hexes = spellings(10), spellings(16)

const hexDigits = "0123456789abcdef"

// spellings returns strconv's spelling of each of 0..255 in base.
func spellings(base int) *[256]string {
	var t [256]string
	buf := make([]byte, 0, 3*len(t))
	for i := range t {
		n := len(buf)
		buf = strconv.AppendUint(buf, uint64(i), base)
		t[i] = unsafe.String(&buf[n], len(buf)-n) // buf never grows
	}
	return &t
}

// appendInt appends v in decimal, or in hex when hex is set, as %d and
// %x spell it.
func appendInt(b []byte, v int, hex bool) []byte {
	if v >= 0 && v <= math.MaxUint32 {
		return appendUint32(b, uint32(v), hex)
	}
	if hex {
		return strconv.AppendInt(b, int64(v), 16)
	}
	return strconv.AppendInt(b, int64(v), 10)
}

// appendUint32 is appendInt for a uint32.
func appendUint32(b []byte, v uint32, hex bool) []byte {
	switch {
	case v < 256 && hex:
		return append(b, hexes[v]...)
	case v < 256:
		return append(b, decimals[v]...)
	case hex:
		return appendHex(b, v)
	}
	return strconv.AppendUint(b, uint64(v), 10)
}

// appendHex appends v in lowercase hex without leading zeros: the
// generators' larger immediates and offsets.
func appendHex(b []byte, v uint32) []byte {
	var buf [8]byte
	i := len(buf)
	for {
		i--
		buf[i] = hexDigits[v&0xf]
		v >>= 4
		if v == 0 {
			break
		}
	}
	return append(b, buf[i:]...)
}
