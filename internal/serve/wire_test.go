package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/jsonx"
	"repro/internal/par"
	"repro/internal/tensor"
)

// jsonReply is the oracle for appendResponse: what json.Encoder wrote
// for a reply before the codec replaced it.
func jsonReply(t *testing.T, r inferResponse) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWireEncodeMatchesJSON: appendResponse writes the same bytes as
// json.Encoder for every finite float32 it is given, for the omitempty
// shapes and for error strings of any content, and reports the first
// non-finite output instead of writing anything.
func TestWireEncodeMatchesJSON(t *testing.T) {
	next := func(x, toward float32) float32 { return math.Nextafter32(x, toward) }
	inf := float32(math.Inf(1))
	edges := []float32{
		0, float32(math.Copysign(0, -1)),
		math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff), math.Float32frombits(0x00800000),
		math.MaxFloat32, 1, 0.1, 1.0 / 3, 123456789, 1e20, 1.2345679e20,
		1e-6, next(1e-6, 0), next(1e-6, 1),
		1e21, next(1e21, 0), next(1e21, inf),
		1e-7, 1e-10, 1e-38, 1e-45, 1e38,
	}
	for e := uint32(0); e < 0xff; e++ { // powers of two, where the gap below is narrower, and their neighbours
		for _, b := range []uint32{e << 23, e<<23 + 1, e<<23 | 1<<23 - 1} {
			edges = append(edges, math.Float32frombits(b))
		}
	}
	for p := -45; p <= 38; p++ { // powers of ten and exact integers, which round through trailing zeros
		edges = append(edges, float32(math.Pow10(p)), float32(p+46), float32((p+46)*1000))
	}
	for _, x := range edges[:len(edges):len(edges)] {
		edges = append(edges, -x)
	}
	r := tensor.NewRNG(17)
	random := make([]float32, 0, 1<<16)
	for len(random) < cap(random) {
		bits := uint32(r.Uint64())
		if x := math.Float32frombits(bits); !math.IsInf(float64(x), 0) && !math.IsNaN(float64(x)) {
			random = append(random, x)
		}
	}
	cases := []inferResponse{
		{},
		{Output: edges, BatchN: 32, Filled: 1, Algo: "FUSED_WINOGRAD"},
		{Output: random, BatchN: 128, Filled: 97, Algo: "GEMM"},
		{Output: []float32{}, BatchN: 64},
		{Filled: -3},
		{Algo: "x"},
		{Error: "serve: no queue for device \"<RTX>&\" layer \"\\\b\f\n\r\t\x00\x1f\x7f\""},
		{Error: "é ☃ 𝄞 \u2028 \u2029 \xff \xc3 \xed\xa0\x80 end"},
		{Output: []float32{1}, Error: "both"},
	}
	for i := 0; i < 64; i++ { // strings of random bytes
		b := make([]byte, 1+i%23)
		for j := range b {
			b[j] = byte(r.Uint64())
		}
		cases = append(cases, inferResponse{Algo: string(b[:len(b)/2]), Error: string(b)})
	}
	for i, c := range cases {
		got, bad := appendResponse([]byte("prefix"), &c)
		if bad != -1 {
			t.Fatalf("case %d: non-finite output %d reported", i, bad)
		}
		want := append([]byte("prefix"), jsonReply(t, c)...)
		if !bytes.Equal(got, want) {
			for j := range want {
				if j >= len(got) || got[j] != want[j] {
					lo := max(j-40, 0)
					t.Fatalf("case %d: bytes differ at %d:\n got %q\nwant %q", i, j, got[lo:min(j+40, len(got))], want[lo:min(j+40, len(want))])
				}
			}
			t.Fatalf("case %d: %d bytes, want %d", i, len(got), len(want))
		}
	}

	for _, x := range []float32{inf, -inf, float32(math.NaN())} {
		got, bad := appendResponse([]byte("prefix"), &inferResponse{Output: []float32{1, 2, x, inf}, BatchN: 32})
		if bad != 2 || string(got) != "prefix" {
			t.Fatalf("output %v: index %d and %q, want 2 and the buffer untouched", x, bad, got)
		}
	}
}

// cancelledExponent is 1e99990000 written so that the fraction's
// leading zeros offset the first digits of a longer exponent: a reader
// that drops the exponent's later digits but keeps the offset reads 1.
var cancelledExponent = "0." + strings.Repeat("0", 9999) + "1e100000000"

// wireSeeds are bodies at the edges of what encoding/json accepts into
// an inferRequest.
func wireSeeds() []string {
	deep := func(n int) string {
		return `{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	return []string{
		`{"device":"RTX2070","layer":"conv_a","image":[0.5,-1.25e-3,3]}`,
		`{"device":"RTX2070","image":[1,2],"layer":"conv_b"}`,
		" \t\r\n{ \"device\" : \"d\" , \"image\" : [ 1 , 2 ] } \n",
		`{}`, `null`, ` null `, `null x`, `[]`, `"x"`, `1`, `true`, ``, ` `, `{} {}`, `{}x`, `{`, `{"device"`,
		`{"Device":"A","LAYER":"B","ImAgE":[1]}`, `{"DEVICE":"A","device":"B"}`,
		`{"\u0064evice":"esc","lay\u0065r":"esc2","\u0069mage":[7]}`,
		`{"devicé":"x"}`, `{"devic\u212a":"x"}`, `{"device ":"x"}`, `{"de\u0000vice":"x"}`,
		`{"device":"a","device":null}`, `{"device":null}`, `{"layer":"a","layer":"b"}`,
		`{"image":[1,2,3],"image":[null]}`,
		`{"image":[1,2,3],"image":[],"image":[null,null]}`,
		`{"image":[1,2],"image":null,"image":[null]}`,
		`{"image":[1],"image":[2,3,4],"image":[null,null,null,null,null]}`,
		`{"image":[null]}`, `{"image":[]}`, `{"image":null}`,
		`{"image":[1e39]}`, `{"image":[-1e39]}`, `{"image":[1e-50]}`, `{"image":[3.4028235e38]}`, `{"image":[3.4028236e38]}`,
		`{"image":[-0]}`, `{"image":[-0.0e+0]}`, `{"image":[1E2]}`, `{"image":[1e-2]}`, `{"image":[123456789012345678901234567890]}`,
		`{"image":[01]}`, `{"image":[1.]}`, `{"image":[.5]}`, `{"image":[1e]}`, `{"image":[-]}`, `{"image":[+1]}`,
		`{"image":[1,]}`, `{"image":[,1]}`, `{"image":[1 2]}`, `{"image":[0x10]}`, `{"image":[Infinity]}`, `{"image":[NaN]}`,
		`{"image":"x"}`, `{"image":{}}`, `{"image":[true]}`, `{"image":[[1]]}`, `{"image":["1"]}`, `{"image":1}`,
		`{"device":1}`, `{"device":[]}`, `{"device":true}`, `{"layer":{}}`,
		`{"x":{"a":[1,{"b":null}],"c":true,"d":false,"e":"s","f":-1.5e3}}`,
		`{"x":[1,]}`, `{"x":01}`, `{"a":1,}`, `{,}`, `{"a" 1}`, `{"a":}`, `{1:2}`, `{"x":tru}`, `{"x":nul}`, `{"x":falsey}`,
		`{"x":{"a":1,"a":2}}`, `{"x":{"a"}}`, `{"x":[}`, `{"x":{]}`,
		`{"device":"\ud800"}`, `{"device":"\ud800\udc00"}`, `{"device":"\udc00\ud800"}`, `{"device":"\ud800\u0041"}`,
		`{"device":"\ud800\u00"}`, `{"device":"\ud800\"}`, `{"device":"\uDBFF\uDFFF"}`, `{"device":"\ud83d\ude00x"}`,
		`{"device":"\"\\\/\b\f\n\r\t"}`, `{"device":"\'"}`, `{"device":"\u00zz"}`, `{"device":"\x"}`, `{"device":"a\`,
		"{\"device\":\"\xff\xfe\"}", "{\"device\":\"\xc3\"}", "{\"device\":\"\xed\xa0\x80\"}", "{\"device\":\"é☃\"}",
		"{\"device\":\"\x01\"}", "{\"device\":\"\x1f\"}", "{\"device\":\"\x7f\"}", "{\"\xff\":1}",
		deep(9998), deep(9999), deep(10000),
		`{"image":[` + cancelledExponent + `]}`,
	}
}

// FuzzWireDecode: for any body, decodeRequest and json.Unmarshal into
// an inferRequest agree on accepting it, and on the device, the layer
// and the image's bits when they do. One scratch buffer serves every
// body, so nothing a body leaves behind may leak into the next.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range wireSeeds() {
		f.Add([]byte(seed))
	}
	var scratch []float32
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeRequest(body, &scratch)
		var want inferRequest
		wantErr := json.Unmarshal(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("body %q: decodeRequest error %v, json.Unmarshal error %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if got.Device != want.Device || got.Layer != want.Layer {
			t.Fatalf("body %q: device, layer %q, %q; json.Unmarshal %q, %q", body, got.Device, got.Layer, want.Device, want.Layer)
		}
		if len(got.Image) != len(want.Image) || (got.Image == nil) != (want.Image == nil) {
			t.Fatalf("body %q: image %v, json.Unmarshal %v", body, got.Image, want.Image)
		}
		for i := range got.Image {
			if math.Float32bits(got.Image[i]) != math.Float32bits(want.Image[i]) {
				t.Fatalf("body %q: image[%d] = %v, json.Unmarshal %v", body, i, got.Image[i], want.Image[i])
			}
		}
	})
}

// TestRyuTables derives appendFloat32's fixed-point powers of five with
// math/big and requires the committed literals to equal them.
func TestRyuTables(t *testing.T) {
	five := big.NewInt(5)
	for q, got := range ryuPow5Inv {
		v := new(big.Int).Lsh(big.NewInt(1), uint(pow5bits(q)-1+ryuInvBits))
		v.Quo(v, new(big.Int).Exp(five, big.NewInt(int64(q)), nil))
		if want := v.Uint64() + 1; got != want {
			t.Errorf("ryuPow5Inv[%d] = %#x, want %#x", q, got, want)
		}
	}
	for i, got := range ryuPow5 {
		v := new(big.Int).Exp(five, big.NewInt(int64(i)), nil)
		if s := pow5bits(i) - ryuBits; s > 0 {
			v.Rsh(v, uint(s))
		} else {
			v.Lsh(v, uint(-s))
		}
		if want := v.Uint64(); got != want {
			t.Errorf("ryuPow5[%d] = %#x, want %#x", i, got, want)
		}
	}
}

// TestWireAllocsPinned: a warm decode of a conv_a body allocates only
// the request's device, layer and image, and encoding its reply into a
// warm buffer allocates nothing (encoding/json took 23 and 1).
func TestWireAllocsPinned(t *testing.T) {
	model := DemoModel(3)
	spec, _, _ := model.Layer("conv_a")
	req := demoRequest(model, "conv_a", 5)
	body, err := json.Marshal(inferRequest{Device: req.Device, Layer: "conv_a", Image: req.Image})
	if err != nil {
		t.Fatal(err)
	}
	out := demoRequest(model, "conv_a", 6).Image
	for len(out) < spec.OutLen() {
		out = append(out, out...)
	}
	reply := inferResponse{Output: out[:spec.OutLen()], BatchN: 32, Filled: 1, Algo: "FUSED_WINOGRAD"}
	var scratch []float32
	var buf []byte
	run := func() {
		in, err := decodeRequest(body, &scratch)
		if err != nil || len(in.Image) != spec.InLen() {
			t.Fatalf("decode: %d floats, %v", len(in.Image), err)
		}
		if buf, _ = appendResponse(buf[:0], &reply); len(buf) == 0 {
			t.Fatal("empty reply")
		}
	}
	run()
	const budget = 3
	if allocs := testing.AllocsPerRun(100, run); allocs > budget {
		t.Fatalf("decode + encode: %.0f allocs, budget %d", allocs, budget)
	}
}

var wireAllBits = flag.Bool("wire.allbits", false,
	"TestFloat32WireAllBits walks all 2^32 float32 bit patterns instead of a stride")

// jsonFloat32 is the oracle for appendFloat32: encoding/json's float32
// formatting, strconv's shortest 'f' or 'e' form with its exponent
// cleanup.
func jsonFloat32(dst []byte, x float32) []byte {
	form := byte('f')
	if abs := math.Abs(float64(x)); abs != 0 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
		form = 'e'
	}
	dst = strconv.AppendFloat(dst, float64(x), form, -1, 32)
	if n := len(dst); form == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// checkFloat32Wire checks one finite float32 both ways: appendFloat32
// writes encoding/json's bytes, and jsonx's Float32 reads them back to
// the same bits. got and want are scratch buffers, returned for reuse.
func checkFloat32Wire(x float32, got, want []byte) ([]byte, []byte, error) {
	got = appendFloat32(got[:0], x)
	if want = jsonFloat32(want[:0], x); !bytes.Equal(got, want) {
		return got, want, fmt.Errorf("bits %#08x: appendFloat32 wrote %q, encoding/json %q", math.Float32bits(x), got, want)
	}
	d := jsonx.NewDecoder(got, "")
	var back float32
	err := d.Float32(&back)
	if err == nil {
		err = d.End()
	}
	if err != nil || math.Float32bits(back) != math.Float32bits(x) {
		return got, want, fmt.Errorf("bits %#08x: %q reads back as %#08x (%v)", math.Float32bits(x), got, math.Float32bits(back), err)
	}
	return got, want, nil
}

// TestFloat32WireAllBits checks every finite float32 pattern on a fixed
// stride, and those on either side of every power of two (each exponent
// boundary), with checkFloat32Wire. With -wire.allbits it checks all
// 2^32 patterns, a few minutes on two cores.
func TestFloat32WireAllBits(t *testing.T) {
	stride := uint64(4093) // prime, so the walk meets every low-bit residue
	if *wireAllBits {
		stride = 1
	}
	var edges []uint32
	for e := uint32(0); e < 0xff; e++ {
		for _, b := range []uint32{e << 23, e<<23 + 1, e<<23 + 2, e<<23 | 1<<23 - 2, e<<23 | 1<<23 - 1} {
			edges = append(edges, b, b|1<<31)
		}
	}
	var failures atomic.Int64
	report := func(err error) {
		if failures.Add(1) <= 20 {
			t.Error(err)
		}
	}
	var got, want []byte
	var err error
	for _, b := range edges {
		if got, want, err = checkFloat32Wire(math.Float32frombits(b), got, want); err != nil {
			report(err)
		}
	}
	const chunks = 1 << 12 // of 2^20 patterns each
	par.For(chunks, 0, func(c int) {
		var got, want []byte
		var err error
		lo, hi := uint64(c)<<20, uint64(c+1)<<20
		for p := (lo + stride - 1) / stride * stride; p < hi; p += stride {
			b := uint32(p)
			if b&0x7f800000 == 0x7f800000 {
				continue
			}
			if got, want, err = checkFloat32Wire(math.Float32frombits(b), got, want); err != nil {
				report(err)
			}
		}
	})
	if n := failures.Load(); n > 0 {
		t.Fatalf("%d patterns failed", n)
	}
}

// FuzzFloat32Wire: arbitrary bits through appendFloat32 and back, as in
// TestFloat32WireAllBits, and arbitrary text through jsonx's Float32,
// which must accept what json.Unmarshal accepts into a float32 and
// read the same bits from it.
func FuzzFloat32Wire(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1", "0.1", "-1.5", "123456789", "1e21", "1e-7", "0.000001", "3.4028235e38", "3.4028236e38",
		"1e39", "1e-50", "1.4e-45", "7e-46", "16777216", "16777217", "9007199254740993", "0.30000001192092896",
		"1.00000005960464477539062", "33554435", "1e10", "1e-10", "123e-22", "1e22", "1e23",
		"00", "1.", ".5", "1e", "-", "+1", "1e+", "1E-3", " 1 ", "null", "true", `"1"`, "1 2", "0x1",
		"100000000000000000000000000000.5", "0.0000000000000000000000000000001", "1" + strings.Repeat("0", 40) + "e-40",
		cancelledExponent,
	} {
		f.Add(uint32(len(s))*0x9e3779b9, []byte(s))
	}
	f.Fuzz(func(t *testing.T, bits uint32, text []byte) {
		if x := math.Float32frombits(bits); bits&0x7f800000 != 0x7f800000 {
			if _, _, err := checkFloat32Wire(x, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		const unset = float32(-12.5)
		got, want := unset, unset
		d := jsonx.NewDecoder(text, "")
		d.Space()
		err := d.Float32(&got)
		if err == nil {
			err = d.End()
		}
		wantErr := json.Unmarshal(text, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("text %q: Float32 error %v, json.Unmarshal error %v", text, err, wantErr)
		}
		if err == nil && math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("text %q: Float32 read %v (%#08x), json.Unmarshal %v (%#08x)", text, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	})
}
