package serve

// The /v1/infer wire codec: one hand-written decoder and encoder for
// the endpoint's fixed schema, in place of encoding/json's reflection.
//
// decodeRequest accepts exactly the bodies json.Unmarshal accepts into
// an inferRequest and yields the same Device, Layer and image bits. It
// checks the whole body in one pass with internal/jsonx, which holds
// the rules it shares with encoding/json: syntax checked everywhere,
// unknown keys skipped with full validation, keys matched exactly or
// under bytes.EqualFold, null leaving a field as it was, a repeated key
// decoding over the earlier value, invalid UTF-8 and lone surrogates in
// strings read as U+FFFD. Each image element is read to the bits
// strconv.ParseFloat(tok, 32) gives (jsonx's Float32), an out-of-range
// one rejecting the body, and a null element leaves it as it was. A
// type mismatch (a non-string name, a non-array image, a non-number
// element, a top-level value other than an object or null) rejects the
// body, as json.Unmarshal's returned error does. FuzzWireDecode holds
// the two to this, and FuzzFloat32Wire and TestFloat32WireAllBits hold
// the floats to strconv.
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
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonx"
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

// decoder is one pass over a request body.
type decoder struct {
	jsonx.Decoder

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
	d := decoder{Decoder: jsonx.NewDecoder(body, "serve: request body"), img: (*scratch)[:0]}
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

// request decodes the body's top-level object; null leaves the request
// empty, as encoding/json leaves the struct as it was.
func (d *decoder) request() (in inferRequest, err error) {
	d.Space()
	err = d.Object(func(key []byte) error {
		switch {
		case jsonx.KeyIs(key, "device"):
			return d.String(&in.Device)
		case jsonx.KeyIs(key, "layer"):
			return d.String(&in.Layer)
		case jsonx.KeyIs(key, "image"):
			return d.image()
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
	return in, err
}

// image decodes the image: null makes it nil, an array of numbers and
// nulls writes its elements over img.
func (d *decoder) image() error {
	switch d.Peek() {
	case 'n':
		d.img, d.imgSet = d.img[:0], false
		return d.Literal("null")
	case '[':
	default:
		return d.Fail(`want an array for "image"`)
	}
	d.Next('[')
	n := 0
	if d.Space(); !d.Next(']') {
		for {
			if n == len(d.img) {
				d.img = append(d.img, 0)
			}
			if err := d.Float32(&d.img[n]); err != nil {
				return err
			}
			n++
			d.Space()
			if d.Next(']') {
				break
			}
			if !d.Next(',') {
				return d.Fail("want ',' or ']' after an image value")
			}
			d.Space()
		}
	}
	if n == 0 { // encoding/json sets a fresh empty slice
		d.img = d.img[:0]
	}
	d.imgLen, d.imgSet = n, true
	return nil
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
			if math.Float32bits(x)&0x7f800000 == 0x7f800000 { // ±Inf or NaN
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
		dst = jsonx.AppendString(appendKey(dst, start, "algo"), r.Algo)
	}
	if r.Error != "" {
		dst = jsonx.AppendString(appendKey(dst, start, "error"), r.Error)
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
