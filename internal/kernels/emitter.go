package kernels

import (
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
// barrier slot) onto b.
func (c ctrl) appendTo(b []byte) []byte {
	if c.wait == 0 {
		b = append(b, "--"...)
	} else {
		if c.wait < 0x10 {
			b = append(b, '0')
		}
		b = strconv.AppendUint(b, uint64(c.wait), 16)
	}
	for _, bar := range [2]int8{c.rd, c.wr} {
		b = append(b, ':')
		if bar >= 0 {
			b = strconv.AppendInt(b, int64(bar), 10)
		} else {
			b = append(b, '-')
		}
	}
	if c.yield {
		b = append(b, ":Y:"...)
	} else {
		b = append(b, ":-:"...)
	}
	return strconv.AppendInt(b, int64(c.stall), 10)
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

// insAux emits a queued instruction.
func (e *emitter) insAux(a auxInst) {
	e.b = append(a.c.appendTo(e.b), "  "...)
	e.b = append(e.b, e.aux[a.start:a.end]...)
	e.b = append(e.b, '\n')
}

// flt emits a float-pipe instruction: it ticks the weave channels and
// applies the yield strategy.
func (e *emitter) flt(c ctrl, format string, args ...any) {
	e.floatCount++
	if e.yieldEvery > 0 && e.floatCount%e.yieldEvery == 0 {
		c = c.noYield()
	}
	e.ins(c, format, args...)
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
		base := 10
		switch verb {
		case 's':
			s, ok := arg.(string)
			if !ok {
				panic(badFormat(format))
			}
			b = append(b, s...)
			continue
		case 'x':
			base = 16
		case 'd':
		default:
			panic(badFormat(format))
		}
		switch v := arg.(type) {
		case int:
			b = strconv.AppendInt(b, int64(v), base)
		case uint32:
			b = strconv.AppendUint(b, uint64(v), base)
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
