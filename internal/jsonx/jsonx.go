// Package jsonx is the repository's one hand-written JSON reader and
// writer, for the fixed schemas it reads on hot paths: the serving
// wire's request bodies, the experiment store file, the tune payloads
// inside it and the embedded device specs.
//
// A Decoder checks JSON syntax everywhere it passes, skipped values
// included, with nesting capped at encoding/json's 10000 levels. Its
// typed readers follow json.Unmarshal's rules for the field they fill:
// keys are matched exactly or else under bytes.EqualFold (KeyIs), null
// leaves a field as it was, a repeated key decodes over the earlier
// value, invalid UTF-8 and lone surrogates in strings read as U+FFFD,
// and a number that does not parse as the field's type rejects the
// value. Schema code builds its decoders from these pieces, and a
// differential test holds each to the encoding/json call it replaced.
//
// The writer half appends strings as json.Marshal escapes them
// (AppendString) and re-indents compact JSON as json.Indent does
// (AppendIndent).
package jsonx

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit, the top-level container
// included.
const maxDepth = 10000

// Decoder is one pass over a JSON document.
type Decoder struct {
	data  []byte
	off   int
	depth int    // containers open at off
	what  string // names the document in errors; may be empty
}

// NewDecoder returns a decoder at the start of data. what names the
// document in error messages.
func NewDecoder(data []byte, what string) Decoder {
	return Decoder{data: data, what: what}
}

// Object decodes an object, calling member for each key with the
// decoder at the key's value; member must consume that value (Skip
// passes over one it does not want). null leaves everything as it was.
func (d *Decoder) Object(member func(key []byte) error) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case '{':
	default:
		return d.Fail("want an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.Space(); d.Next('}') {
		d.depth--
		return nil
	}
	for {
		key, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			key = unquote(nil, key)
		}
		if d.Space(); !d.Next(':') {
			return d.Fail("want ':' after an object key")
		}
		d.Space()
		if err := member(key); err != nil {
			return err
		}
		d.Space()
		switch {
		case d.Next(','):
			d.Space()
		case d.Next('}'):
			d.depth--
			return nil
		default:
			return d.Fail("want ',' or '}' after an object value")
		}
	}
}

// Array decodes an array, calling elem for each element with the
// decoder at it, and returns the number of elements, or -1 for null.
func (d *Decoder) Array(elem func(i int) error) (int, error) {
	switch d.Peek() {
	case 'n':
		return -1, d.Literal("null")
	case '[':
	default:
		return 0, d.Fail("want an array")
	}
	if err := d.open(); err != nil {
		return 0, err
	}
	if d.Space(); d.Next(']') {
		d.depth--
		return 0, nil
	}
	for n := 0; ; {
		if err := elem(n); err != nil {
			return n, err
		}
		n++
		d.Space()
		switch {
		case d.Next(','):
			d.Space()
		case d.Next(']'):
			d.depth--
			return n, nil
		default:
			return n, d.Fail("want ',' or ']' after an array value")
		}
	}
}

// open passes over the '{' or '[' at d.off, one level deeper.
func (d *Decoder) open() error {
	if d.depth >= maxDepth {
		return d.Fail("nesting too deep")
	}
	d.depth++
	d.off++
	return nil
}

// KeyIs reports whether an object key names field as encoding/json
// matches them: exactly, or else under bytes.EqualFold, which also
// folds U+212A to k and U+017F to s.
func KeyIs(key []byte, field string) bool {
	return string(key) == field || bytes.EqualFold(key, []byte(field))
}

// String decodes a string into *dst; null leaves it as it was.
func (d *Decoder) String(dst *string) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case '"':
	default:
		return d.Fail("want a string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return err
	}
	if !plain {
		raw = unquote(nil, raw)
	}
	*dst = string(raw)
	return nil
}

// Int decodes an integer that fits an int into *dst; null leaves it as
// it was.
func (d *Decoder) Int(dst *int) error {
	tok, err := d.numberOrNull()
	if err != nil || tok == nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return d.errorf("number %s is not an int", tok)
	}
	*dst = int(n)
	return nil
}

// Float decodes a number that fits a float64 into *dst; null leaves it
// as it was.
func (d *Decoder) Float(dst *float64) error {
	tok, err := d.numberOrNull()
	if err != nil || tok == nil {
		return err
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return d.errorf("number %s is not a float64", tok)
	}
	*dst = f
	return nil
}

// Float32 decodes a number into *dst as strconv.ParseFloat(text, 32)
// reads it, rejecting one out of float32 range; null leaves *dst as it
// was. It gathers the digits while it checks the syntax, converts them
// itself where that is exact (decimal.float32) and leaves the other
// numbers to strconv.
func (d *Decoder) Float32(dst *float32) error {
	switch c := d.Peek(); {
	case c == 'n':
		return d.Literal("null")
	case c != '-' && (c < '0' || '9' < c):
		return d.Fail("want a number")
	}
	start := d.off
	x, err := d.scanNumber()
	if err != nil {
		return err
	}
	if f, ok := x.float32(); ok {
		*dst = f
		return nil
	}
	tok := d.data[start:d.off]
	g, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return d.errorf("number %s at offset %d is not a float32", tok, start)
	}
	*dst = float32(g)
	return nil
}

// Bool decodes true or false into *dst; null leaves it as it was.
func (d *Decoder) Bool(dst *bool) error {
	switch d.Peek() {
	case 'n':
		return d.Literal("null")
	case 't':
		*dst = true
		return d.Literal("true")
	case 'f':
		*dst = false
		return d.Literal("false")
	}
	return d.Fail("want a boolean")
}

// numberOrNull checks a number and returns its text, or nil for null.
func (d *Decoder) numberOrNull() ([]byte, error) {
	switch c := d.Peek(); {
	case c == 'n':
		return nil, d.Literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return nil, d.Fail("want a number")
}

// Skip checks and passes over one value.
func (d *Decoder) Skip() error {
	_, err := d.value(nil, false)
	return err
}

// Compact checks one value and appends it to dst without insignificant
// whitespace, as json.Compact does: string contents are copied as they
// are, escapes included.
func (d *Decoder) Compact(dst []byte) ([]byte, error) {
	return d.value(dst, true)
}

// value passes over one value, appending it compacted to dst when keep
// is set.
func (d *Decoder) value(dst []byte, keep bool) ([]byte, error) {
	start := d.off
	var err error
	switch c := d.Peek(); c {
	case '{', '[':
		if err := d.open(); err != nil {
			return dst, err
		}
		end := c + 2 // '}' or ']'
		if keep {
			dst = append(dst, c)
		}
		if d.Space(); !d.Next(end) {
			for {
				if c == '{' {
					kstart := d.off
					if _, _, err := d.scanString(); err != nil {
						return dst, err
					}
					if keep {
						dst = append(dst, d.data[kstart:d.off]...)
					}
					if d.Space(); !d.Next(':') {
						return dst, d.Fail("want ':' after an object key")
					}
					if keep {
						dst = append(dst, ':')
					}
					d.Space()
				}
				if dst, err = d.value(dst, keep); err != nil {
					return dst, err
				}
				d.Space()
				if d.Next(end) {
					break
				}
				if !d.Next(',') {
					return dst, d.Fail("want ',' or the container's end")
				}
				if keep {
					dst = append(dst, ',')
				}
				d.Space()
			}
		}
		d.depth--
		if keep {
			dst = append(dst, end)
		}
		return dst, nil
	case '"':
		_, _, err = d.scanString()
	case 't':
		err = d.Literal("true")
	case 'f':
		err = d.Literal("false")
	case 'n':
		err = d.Literal("null")
	default:
		_, err = d.number()
	}
	if err == nil && keep {
		dst = append(dst, d.data[start:d.off]...)
	}
	return dst, err
}

// scanString checks the string at d.off and returns its text between
// the quotes. plain reports that the text is printable ASCII without
// escapes, so it is already the string's value; otherwise unquote
// makes the value.
func (d *Decoder) scanString() (raw []byte, plain bool, err error) {
	if d.Peek() != '"' {
		return nil, false, d.Fail("want a string")
	}
	d.off++
	start, plain := d.off, true
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], plain, nil
		case c == '\\':
			plain = false
			d.off++
			switch d.Peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				if hex4(d.data[d.off+1:]) < 0 {
					return nil, false, d.Fail(`bad \u escape`)
				}
				d.off += 5
			default:
				return nil, false, d.Fail("bad escape")
			}
		case c < ' ':
			return nil, false, d.Fail("control character in a string")
		default:
			plain = plain && c < utf8.RuneSelf
			d.off++
		}
	}
	return nil, false, d.Fail("unterminated string")
}

// unquote appends the value of a string's checked text to dst:
// escapes resolved, and invalid UTF-8 and unpaired surrogates turned
// into U+FFFD, as encoding/json does.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
			continue
		}
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch e := raw[i+1]; e {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(raw[i+2:])
			i += 6
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(raw) >= i+2 && raw[i] == '\\' && raw[i+1] == 'u' {
					r2 = hex4(raw[i+2:])
				}
				if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
					i += 6
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, e)
		}
		i += 2
	}
	return dst
}

// hex4 parses the four hex digits that start b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number checks the JSON number at d.off and returns its text.
func (d *Decoder) number() ([]byte, error) {
	start := d.off
	if _, err := d.scanNumber(); err != nil {
		return nil, err
	}
	return d.data[start:d.off], nil
}

// decimal is a JSON number's value as mant × 10^e10, negated when neg.
// inexact marks a number with more digits than mant holds, or with an
// exponent too long to read in full.
type decimal struct {
	mant         uint64
	e10          int
	neg, inexact bool
}

// scanNumber checks the JSON number at d.off, passes over it and
// returns its value. It indexes the data directly, since it runs once
// per image element.
func (d *Decoder) scanNumber() (x decimal, err error) {
	data, i := d.data, d.off
	// digits passes over a run of digits from i, appending each to
	// x.mant while it has room and adding scale to x.e10 for each one
	// kept, and returns the run's length.
	digits := func(scale int) int {
		start := i
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if x.mant < 1e18 {
				x.mant = x.mant*10 + uint64(data[i]-'0')
				x.e10 += scale
			} else {
				x.inexact = true
			}
		}
		return i - start
	}
	fail := func(what string) (decimal, error) {
		d.off = i
		return x, d.Fail(what)
	}
	if x.neg = i < len(data) && data[i] == '-'; x.neg {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		digits(0)
	default:
		return fail("want a value")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if digits(-1) == 0 {
			return fail("want a digit after '.'")
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		neg := i < len(data) && data[i] == '-'
		if i < len(data) && (neg || data[i] == '+') {
			i++
		}
		exp, start := 0, i
		for ; i < len(data) && '0' <= data[i] && data[i] <= '9'; i++ {
			if exp < 1e4 { // far past any float
				exp = exp*10 + int(data[i]-'0')
			} else { // leading zeros could offset what is dropped; strconv decides
				x.inexact = true
			}
		}
		if i == start {
			return fail("want a digit in the exponent")
		}
		if neg {
			exp = -exp
		}
		x.e10 += exp
	}
	d.off = i
	return x, nil
}

// float64Pow10 holds the powers of ten that float64 represents exactly.
var float64Pow10 = [23]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// float32 returns x rounded to the nearest float32, as
// strconv.ParseFloat(text, 32) rounds it, when one correctly rounded
// operation computes that: mant < 2^53 and |e10| <= 22 is one float64
// multiply or divide of exact operands, then a rounding to float32
// that can differ from rounding x itself only when the float64 lies
// exactly halfway between two float32s. The result stays in float32
// range: 2^53 × 10^22 < MaxFloat32, and 10^-22 is normal. Otherwise ok
// is false.
func (x decimal) float32() (f float32, ok bool) {
	switch {
	case x.inexact:
		return 0, false
	case x.mant == 0:
	case x.mant < 1<<53 && -22 <= x.e10 && x.e10 <= 22:
		g := float64(x.mant)
		if x.e10 < 0 {
			g /= float64Pow10[-x.e10]
		} else {
			g *= float64Pow10[x.e10]
		}
		if math.Float64bits(g)&(1<<29-1) == 1<<28 { // halfway between two float32s
			return 0, false
		}
		f = float32(g)
	default:
		return 0, false
	}
	if x.neg {
		f = -f
	}
	return f, true
}

// Literal passes over word, one of true, false and null.
func (d *Decoder) Literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.Fail("want a value")
	}
	d.off += len(word)
	return nil
}

// Space passes over JSON whitespace.
func (d *Decoder) Space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// End checks that only whitespace follows the top-level value.
func (d *Decoder) End() error {
	if d.Space(); d.off < len(d.data) {
		return d.Fail("data after the value")
	}
	return nil
}

// Peek returns the byte at d.off, or 0 at the end of the data.
func (d *Decoder) Peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// Next passes over c if it is the byte at d.off.
func (d *Decoder) Next(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// Fail reports that the byte at d.off is not what was wanted.
func (d *Decoder) Fail(what string) error {
	if d.off >= len(d.data) {
		return d.errorf("%s, found the end", what)
	}
	return d.errorf("%s, found %q at offset %d", what, d.data[d.off], d.off)
}

func (d *Decoder) errorf(format string, args ...any) error {
	if d.what != "" {
		format = d.what + ": " + format
	}
	return fmt.Errorf(format, args...)
}
