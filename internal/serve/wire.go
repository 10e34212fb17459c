package serve

// The /v1/infer wire codec: one hand-written decoder and encoder for
// the endpoint's fixed schema, in place of encoding/json's reflection.
//
// decodeRequest accepts exactly the bodies json.Unmarshal accepts into
// an inferRequest and yields the same Device, Layer and image bits. It
// checks the whole body in one pass: JSON syntax everywhere, unknown
// keys skipped with full validation (nesting capped at 10000 levels as
// in encoding/json), keys matched exactly or else ASCII case-folded
// (encoding/json also folds the Kelvin sign and long s, which none of
// the three keys contain), null leaving a string field unchanged and
// an image element as it was, a repeated key decoding over the earlier
// value, invalid UTF-8 and lone surrogates in strings read as U+FFFD,
// and each image element parsed by strconv.ParseFloat(tok, 32), an
// out-of-range one rejecting the body. A type mismatch (a non-string
// name, a non-array image, a non-number element, a top-level value
// other than an object or null) rejects the body, as json.Unmarshal's
// returned error does. FuzzWireDecode holds the two to this.
//
// Two things differ from the json.Decoder the handler used before, and
// only for bodies no client of the schema sends: bytes after the object
// reject the body, as in json.Unmarshal, where the Decoder stopped
// reading after the first value; and the handler reads the whole body
// before decoding it, so a body over its limit gets 413 even when its
// object ends before the limit.
//
// appendResponse writes byte for byte what json.Encoder.Encode writes
// for an inferResponse (TestWireEncodeMatchesJSON), except that it
// reports a non-finite output value instead of failing to encode.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// inferRequest is the POST /v1/infer body.
type inferRequest struct {
	Device string    `json:"device"`
	Layer  string    `json:"layer"`
	Image  []float32 `json:"image"`
}

// inferResponse is its reply.
type inferResponse struct {
	Output []float32 `json:"output,omitempty"`
	BatchN int       `json:"batch_n,omitempty"`
	Filled int       `json:"filled,omitempty"`
	Algo   string    `json:"algo,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// wireBuf is one request's pooled scratch: b holds the body and then
// the reply, img the image floats while they are parsed.
type wireBuf struct {
	b   []byte
	img []float32
}

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

// readRequest reads all of r into wb.b and decodes it.
func (wb *wireBuf) readRequest(r io.Reader) (inferRequest, error) {
	b := wb.b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			wb.b = b
			return inferRequest{}, err
		}
	}
	wb.b = b
	return decodeRequest(b, &wb.img)
}

// reply encodes resp into wb.b and writes it with status code. When an
// output value is not finite it writes nothing and returns that value's
// index; otherwise it returns -1.
func (wb *wireBuf) reply(w http.ResponseWriter, code int, resp *inferResponse) int {
	var bad int
	if wb.b, bad = appendResponse(wb.b[:0], resp); bad >= 0 {
		return bad
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(wb.b) // a failed write means the client has gone; there is no one to tell
	return -1
}

// maxDepth is encoding/json's nesting limit, the top-level object
// included.
const maxDepth = 10000

// decoder is one pass over a request body.
type decoder struct {
	data []byte
	off  int

	// img backs the image: its length is how many elements this body
	// has written, so an element past it starts at zero and one before
	// it keeps what an earlier "image" key left there, as the slice
	// encoding/json decodes into does.
	img    []float32
	imgLen int  // length of the decoded image
	imgSet bool // the image is non-nil
}

// decodeRequest parses a /v1/infer body. The image is parsed into
// *scratch, which the caller keeps for the next body, and returned in
// a slice of its own.
func decodeRequest(body []byte, scratch *[]float32) (inferRequest, error) {
	d := decoder{data: body, img: (*scratch)[:0]}
	in, err := d.request()
	*scratch = d.img[:0]
	if err != nil {
		return inferRequest{}, err
	}
	if d.imgSet {
		in.Image = make([]float32, d.imgLen)
		copy(in.Image, d.img)
	}
	return in, nil
}

func (d *decoder) request() (in inferRequest, err error) {
	d.space()
	switch d.peek() {
	case '{':
		err = d.object(&in)
	case 'n': // encoding/json leaves the struct as it was
		err = d.literal("null")
	default:
		err = d.fail("want an object")
	}
	if err != nil {
		return in, err
	}
	if d.space(); d.off < len(d.data) {
		return in, d.fail("data after the object")
	}
	return in, nil
}

func (d *decoder) object(in *inferRequest) error {
	d.off++ // '{'
	if d.space(); d.next('}') {
		return nil
	}
	for {
		key, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if !plain {
			var buf [16]byte
			key = unquote(buf[:0], key)
		}
		if d.space(); !d.next(':') {
			return d.fail("want ':' after an object key")
		}
		d.space()
		switch {
		case keyIs(key, "device"):
			err = d.name(&in.Device)
		case keyIs(key, "layer"):
			err = d.name(&in.Layer)
		case keyIs(key, "image"):
			err = d.image()
		default:
			err = d.skip(2)
		}
		if err != nil {
			return err
		}
		d.space()
		switch {
		case d.next(','):
			d.space()
		case d.next('}'):
			return nil
		default:
			return d.fail("want ',' or '}' after an object value")
		}
	}
}

// keyIs reports whether key names field, a lower-case ASCII name, as
// encoding/json matches keys: exactly or with ASCII case folded.
func keyIs(key []byte, field string) bool {
	if len(key) != len(field) {
		return false
	}
	for i := range key {
		if c := key[i]; c != field[i] && c+('a'-'A') != field[i] {
			return false
		}
	}
	return true
}

// name decodes a string field; null leaves it as it was.
func (d *decoder) name(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.fail("want a string")
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

// image decodes the image: null makes it nil, an array of numbers and
// nulls writes its elements over img.
func (d *decoder) image() error {
	switch d.peek() {
	case 'n':
		d.img, d.imgSet = d.img[:0], false
		return d.literal("null")
	case '[':
	default:
		return d.fail(`want an array for "image"`)
	}
	d.off++
	n := 0
	if d.space(); !d.next(']') {
		for {
			if n == len(d.img) {
				d.img = append(d.img, 0)
			}
			switch c := d.peek(); {
			case c == 'n':
				if err := d.literal("null"); err != nil {
					return err
				}
			case c == '-' || '0' <= c && c <= '9':
				tok, err := d.number()
				if err != nil {
					return err
				}
				f, err := strconv.ParseFloat(string(tok), 32)
				if err != nil {
					return fmt.Errorf("serve: request body: image[%d] %s is not a float32", n, tok)
				}
				d.img[n] = float32(f)
			default:
				return d.fail("want a number in the image")
			}
			n++
			d.space()
			if d.next(']') {
				break
			}
			if !d.next(',') {
				return d.fail("want ',' or ']' after an image value")
			}
			d.space()
		}
	}
	if n == 0 { // encoding/json sets a fresh empty slice
		d.img = d.img[:0]
	}
	d.imgLen, d.imgSet = n, true
	return nil
}

// skip checks and passes over one value of an unknown key; a container
// would sit at nesting level depth.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); c {
	case '{', '[':
		if depth > maxDepth {
			return d.fail("nesting too deep")
		}
		end := c + 2 // '}' or ']'
		d.off++
		if d.space(); d.next(end) {
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := d.scanString(); err != nil {
					return err
				}
				if d.space(); !d.next(':') {
					return d.fail("want ':' after an object key")
				}
				d.space()
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.space()
			switch {
			case d.next(','):
				d.space()
			case d.next(end):
				return nil
			default:
				return d.fail("want ',' or the container's end")
			}
		}
	case '"':
		_, _, err := d.scanString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		_, err := d.number()
		return err
	}
}

// scanString checks the string at d.off and returns its text between
// the quotes. plain reports that the text is printable ASCII without
// escapes, so it is already the string's value; otherwise unquote
// makes the value.
func (d *decoder) scanString() (raw []byte, plain bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("want a string")
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
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				if hex4(d.data[d.off+1:]) < 0 {
					return nil, false, d.fail(`bad \u escape`)
				}
				d.off += 5
			default:
				return nil, false, d.fail("bad escape")
			}
		case c < ' ':
			return nil, false, d.fail("control character in a string")
		default:
			plain = plain && c < utf8.RuneSelf
			d.off++
		}
	}
	return nil, false, d.fail("unterminated string")
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
func (d *decoder) number() ([]byte, error) {
	start := d.off
	d.next('-')
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.fail("want a value")
	}
	if d.next('.') && d.digits() == 0 {
		return nil, d.fail("want a digit after '.'")
	}
	if d.next('e') || d.next('E') {
		if !d.next('+') {
			d.next('-')
		}
		if d.digits() == 0 {
			return nil, d.fail("want a digit in the exponent")
		}
	}
	return d.data[start:d.off], nil
}

// digits passes over a run of decimal digits and returns its length.
func (d *decoder) digits() int {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off - start
}

func (d *decoder) literal(word string) error {
	if len(d.data)-d.off < len(word) || string(d.data[d.off:d.off+len(word)]) != word {
		return d.fail("want a value")
	}
	d.off += len(word)
	return nil
}

// space passes over JSON whitespace.
func (d *decoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *decoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// next passes over c if it is the byte at d.off.
func (d *decoder) next(c byte) bool {
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *decoder) fail(what string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("serve: request body: %s, found the end", what)
	}
	return fmt.Errorf("serve: request body: %s, found %q at offset %d", what, d.data[d.off], d.off)
}

// appendResponse appends r and a newline to dst as json.Encoder does,
// fields in declaration order, empty ones omitted. It stops at the
// first output value that is not finite and returns its index, with dst
// as it was; otherwise the index is -1.
func appendResponse(dst []byte, r *inferResponse) ([]byte, int) {
	start := len(dst)
	dst = append(dst, '{')
	if len(r.Output) > 0 {
		dst = append(dst, `"output":[`...)
		for i, x := range r.Output {
			if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
				return dst[:start], i
			}
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat32(dst, x)
		}
		dst = append(dst, ']')
	}
	if r.BatchN != 0 {
		dst = strconv.AppendInt(appendKey(dst, start, "batch_n"), int64(r.BatchN), 10)
	}
	if r.Filled != 0 {
		dst = strconv.AppendInt(appendKey(dst, start, "filled"), int64(r.Filled), 10)
	}
	if r.Algo != "" {
		dst = appendString(appendKey(dst, start, "algo"), r.Algo)
	}
	if r.Error != "" {
		dst = appendString(appendKey(dst, start, "error"), r.Error)
	}
	return append(dst, "}\n"...), -1
}

// appendKey appends an object key, after a comma unless it is the
// first of the object that starts at dst[start].
func appendKey(dst []byte, start int, key string) []byte {
	if len(dst) > start+1 {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, `":`...)
}

// appendString appends s quoted as json.Encoder does by default: HTML
// characters, control characters, U+2028 and U+2029 escaped, invalid
// UTF-8 written as \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
