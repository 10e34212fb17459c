package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// Request bodies are bounded by the largest layer's image: bytesPerFloat
// covers any float32 as the codec writes it (appendFloat32 takes at most
// 22 bytes, for -1.2345679e20 written out in full) plus its comma and
// whitespace, so a client may send back what the server replies, and
// bodySlack covers the device and layer names and the field syntax.
const (
	bytesPerFloat = 32
	bodySlack     = 4 << 10
)

// maxBody is the largest /v1/infer body the handler reads.
func (s *Server) maxBody() int64 {
	longest := 0
	for _, l := range s.cfg.Model.layers {
		longest = max(longest, l.spec.InLen())
	}
	return int64(longest)*bytesPerFloat + bodySlack
}

// Handler exposes the server over HTTP: POST /v1/infer with a JSON
// body {device, layer, image} blocks until the request's batch has run
// and returns the output image. A body over maxBody gets 413 and a
// malformed one 400. Admission rejections map to 429, shutdown to 503 —
// the status codes a load balancer retries on — a panicked batch, or
// one whose executor output does not fit it, to 500, and an output
// holding a value JSON cannot carry (±Inf or NaN) to 422. Bodies are
// read and replies written by the codec in wire.go.
func (s *Server) Handler() http.Handler {
	limit := s.maxBody()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		wb := wireBufs.Get().(*wireBuf)
		defer wireBufs.Put(wb)
		in, err := wb.readRequest(http.MaxBytesReader(w, r.Body, limit))
		if err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			wb.reply(w, code, &inferResponse{Error: err.Error()})
			return
		}
		resp, err := s.Infer(&Request{Device: in.Device, Layer: in.Layer, Image: in.Image})
		if err == nil {
			err = resp.Err
		}
		if err != nil {
			code := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrOverloaded):
				code = http.StatusTooManyRequests
			case errors.Is(err, ErrClosed):
				code = http.StatusServiceUnavailable
			case errors.Is(err, ErrPanicked), errors.Is(err, ErrBadOutput):
				code = http.StatusInternalServerError
			}
			wb.reply(w, code, &inferResponse{Error: err.Error()})
			return
		}
		if i := wb.reply(w, http.StatusOK, &inferResponse{
			Output: resp.Output, BatchN: resp.BatchN, Filled: resp.Filled, Algo: string(resp.Algo),
		}); i >= 0 {
			wb.reply(w, http.StatusUnprocessableEntity, &inferResponse{
				Error: fmt.Sprintf("serve: layer %q output %d is %v, which JSON cannot carry", in.Layer, i, resp.Output[i]),
			})
		}
	})
	return mux
}
