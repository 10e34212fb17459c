package kernels

import (
	"fmt"
	"strconv"
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
	items []auxInst
	since int
}

// emitter accumulates assembler source and implements the instruction
// weaving behind the paper's Section 6 studies: a primary float-pipe
// stream with auxiliary memory instructions inserted every N float
// instructions (LDGn / STSn), and the yield-flag strategy applied to the
// float stream (Natural / every-7 / every-8).
//
// Instruction text is formatted straight into one growing buffer, and
// queued auxiliary text into a second one, so a kernel costs a handful
// of buffer growths instead of several allocations per instruction.
type emitter struct {
	b          []byte
	aux        []byte // queued instruction text; reset when every channel is empty
	floatCount int
	yieldEvery int
	ch         [numChannels]channelState
}

func newEmitter(yieldEvery int) *emitter {
	e := &emitter{yieldEvery: yieldEvery}
	for i := range e.ch {
		e.ch[i].since = 1 << 20 // first item inserts immediately
	}
	return e
}

// raw emits a directive or label verbatim.
func (e *emitter) raw(s string) {
	e.b = append(e.b, s...)
	e.b = append(e.b, '\n')
}

// ins emits one instruction with its control code, bypassing the weaver.
func (e *emitter) ins(c ctrl, format string, args ...any) {
	e.b = append(c.appendTo(e.b), "  "...)
	e.b = fmt.Appendf(e.b, format, args...)
	e.b = append(e.b, '\n')
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
	e.aux = fmt.Appendf(e.aux, format, args...)
	e.ch[channel].items = append(e.ch[channel].items,
		auxInst{c: c, start: start, end: len(e.aux), gap: gap})
}

func (e *emitter) drain() {
	for i := range e.ch {
		ch := &e.ch[i]
		for len(ch.items) > 0 && ch.since >= ch.items[0].gap {
			a := ch.items[0]
			ch.items = ch.items[1:]
			e.insAux(a)
			if a.gap > 0 {
				ch.since = 0
			}
		}
	}
}

// flush emits everything still queued on a channel, back to back.
func (e *emitter) flush(channel int) {
	ch := &e.ch[channel]
	for _, a := range ch.items {
		e.insAux(a)
	}
	ch.items = ch.items[:0]
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

func (e *emitter) source() string { return string(e.b) }
