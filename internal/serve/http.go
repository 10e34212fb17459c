package serve

import (
	"encoding/json"
	"errors"
	"net/http"
)

// inferRequest is the POST /v1/infer wire format.
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

// Request bodies are bounded by the largest layer's image: bytesPerFloat
// covers any float32's JSON text (at most 22 bytes, e.g. "-1.2345679e+20"
// written out in full by encoding/json) plus its comma and whitespace,
// and bodySlack the device and layer names and the field syntax.
const (
	bytesPerFloat = 32
	bodySlack     = 4 << 10
)

// maxBody is the largest /v1/infer body the handler reads.
func (s *Server) maxBody() int64 {
	longest := 0
	for _, name := range s.cfg.Model.LayerNames() {
		spec, _, _ := s.cfg.Model.Layer(name)
		longest = max(longest, spec.InLen())
	}
	return int64(longest)*bytesPerFloat + bodySlack
}

// Handler exposes the server over HTTP: POST /v1/infer with a JSON
// body {device, layer, image} blocks until the request's batch has run
// and returns the output image. A body over maxBody gets 413.
// Admission rejections map to 429, shutdown to 503 — the status codes a
// load balancer retries on — and a panicked batch to 500.
func (s *Server) Handler() http.Handler {
	limit := s.maxBody()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var in inferRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&in); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, code, inferResponse{Error: err.Error()})
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
			case errors.Is(err, ErrPanicked):
				code = http.StatusInternalServerError
			}
			writeJSON(w, code, inferResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, inferResponse{
			Output: resp.Output, BatchN: resp.BatchN, Filled: resp.Filled, Algo: string(resp.Algo),
		})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
