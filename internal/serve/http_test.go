package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/gpu"
	"repro/internal/tune"
)

func postInfer(t *testing.T, url string, body inferRequest) (int, inferResponse) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/infer", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out inferResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestHTTPInfer: the JSON endpoint round-trips a request through the
// batched server.
func TestHTTPInfer(t *testing.T) {
	model := DemoModel(23)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     &stubExec{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _, _ := model.Layer("conv_a")
	code, out := postInfer(t, ts.URL, inferRequest{
		Device: gpu.RTX2070().Name, Layer: "conv_a", Image: make([]float32, spec.InLen()),
	})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out.Error)
	}
	if len(out.Output) != spec.OutLen() || out.BatchN%32 != 0 {
		t.Fatalf("response: %d output floats in batch %d", len(out.Output), out.BatchN)
	}

	if code, _ := postInfer(t, ts.URL, inferRequest{Device: "nope", Layer: "conv_a"}); code != http.StatusBadRequest {
		t.Fatalf("unknown device: status %d, want 400", code)
	}

	// A body over the bound is refused before it is decoded: an image
	// of the largest layer written with more than bytesPerFloat bytes a
	// value (padded with JSON whitespace) does not fit.
	img, err := json.Marshal(make([]float32, spec.InLen()))
	if err != nil {
		t.Fatal(err)
	}
	pad := bytes.Repeat([]byte(" "), int(s.maxBody()))
	body := append(append([]byte(`{"device":"RTX2070","layer":"conv_a","image":`), img...), append(pad, '}')...)
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body: status %d, want 413", len(body), resp.StatusCode)
	}

	s.Close()
	if code, _ := postInfer(t, ts.URL, inferRequest{
		Device: gpu.RTX2070().Name, Layer: "conv_a", Image: make([]float32, spec.InLen()),
	}); code != http.StatusServiceUnavailable {
		t.Fatalf("after Close: status %d, want 503", code)
	}
}

// FuzzInferHandler feeds raw bodies to /v1/infer: the handler never
// panics and answers every body with one of the statuses it documents.
func FuzzInferHandler(f *testing.F) {
	model := DemoModel(29)
	s, err := NewServer(Config{
		Model:    model,
		Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused}),
		Exec:     &stubExec{},
	})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	spec, _, _ := model.Layer("conv_b")
	valid, err := json.Marshal(inferRequest{Device: gpu.RTX2070().Name, Layer: "conv_b", Image: make([]float32, spec.InLen())})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		"",
		"{}",
		"null",
		`{"device":"RTX2070","layer":"conv_b","image":[1,2,3]}`,
		`{"device":"RTX2070","layer":"nope","image":[]}`,
		`{"image":[1e39]}`,
		`{"image":"x"}`,
		"{" + strings.Repeat(" ", int(s.maxBody())) + "}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
			http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}
	})
}

// TestHTTPNonFiniteOutput: valid float32 inputs whose convolution
// overflows get 422 with an error naming the layer and the first
// non-finite output, not a 200 with an empty body.
func TestHTTPNonFiniteOutput(t *testing.T) {
	model := DemoModel(37)
	s, err := NewServer(Config{Model: model, Selector: FixedSelector(tune.Choice{Algo: tune.AlgoFused})})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _, _ := model.Layer("conv_a")
	img := make([]float32, spec.InLen())
	for i := range img {
		img[i] = 3e38
		if i%2 == 1 {
			img[i] = -3e38
		}
	}
	direct, err := s.Infer(&Request{Device: gpu.RTX2070().Name, Layer: "conv_a", Image: img})
	if err != nil || direct.Err != nil {
		t.Fatal(err, direct.Err)
	}
	first := -1
	for i, x := range direct.Output {
		if math.IsInf(float64(x), 0) || math.IsNaN(float64(x)) {
			first = i
			break
		}
	}
	if first < 0 {
		t.Fatal("no non-finite output: the image no longer overflows")
	}

	code, out := postInfer(t, ts.URL, inferRequest{Device: gpu.RTX2070().Name, Layer: "conv_a", Image: img})
	if code != http.StatusUnprocessableEntity || len(out.Output) != 0 {
		t.Fatalf("status %d with %d output floats, want 422 and none", code, len(out.Output))
	}
	if want := fmt.Sprintf(`layer "conv_a" output %d `, first); !strings.Contains(out.Error, want) {
		t.Fatalf("error %q does not contain %q", out.Error, want)
	}
}

// TestServerDevice: a server on a non-default device answers requests
// for that device and rejects those for another, through Submit and
// through HTTP (400), and its selector chooses for that device alone.
func TestServerDevice(t *testing.T) {
	model := DemoModel(29)
	sel := NewTuneSelector(4)
	s, err := NewServer(Config{Model: model, Selector: sel, Device: gpu.V100()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, _, _ := model.Layer("conv_a")
	v100, rtx := gpu.V100().Name, gpu.RTX2070().Name
	img := make([]float32, spec.InLen())
	if resp, err := s.Infer(&Request{Device: v100, Layer: "conv_a", Image: img}); err != nil || resp.Err != nil {
		t.Fatalf("%s request through Submit: %v, %v", v100, err, resp.Err)
	}
	if _, err := s.Submit(&Request{Device: rtx, Layer: "conv_a", Image: img}); err == nil || !strings.Contains(err.Error(), "no queue for device") {
		t.Fatalf("%s request through Submit: err %v, want no queue", rtx, err)
	}
	if code, out := postInfer(t, ts.URL, inferRequest{Device: v100, Layer: "conv_a", Image: img}); code != http.StatusOK {
		t.Fatalf("%s request through HTTP: status %d: %s", v100, code, out.Error)
	}
	if code, _ := postInfer(t, ts.URL, inferRequest{Device: rtx, Layer: "conv_a", Image: img}); code != http.StatusBadRequest {
		t.Fatalf("%s request through HTTP: status %d, want 400", rtx, code)
	}
	counts := sel.ChooseCounts()
	if len(counts) == 0 {
		t.Fatal("the selector chose nothing")
	}
	for key := range counts {
		if !strings.HasPrefix(key, v100+"|") {
			t.Errorf("the selector chose for %q, want only %s shapes", key, v100)
		}
	}
}
