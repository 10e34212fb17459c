package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite the golden load-generator report")

const serveGoldenPath = "testdata/serve_quick.golden"

func runCapture(t *testing.T, argv ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(argv, &out, &errOut)
	return out.String(), errOut.String(), code
}

// firstDiff renders the first line-level difference between two texts
// (empty when identical), keeping failure output readable.
func firstDiff(want, got string) string {
	if want == got {
		return ""
	}
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestServeGolden pins the load-generator report to a committed golden,
// byte for byte, and checks it is independent of the worker count — the
// serving twin of the experiment-table determinism contract: the report
// is a pure function of (seed, config) even though every sampled batch
// really executes through the model's prepared weights.
//
// Regenerate after an intentional change with:
//
//	go test ./cmd/winograd-serve -run TestServeGolden -update
func TestServeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("load generation with real batch executions takes seconds")
	}
	args := []string{"-requests", "600", "-seed", "42"}
	seq, _, code := runCapture(t, append([]string{"-jobs", "1"}, args...)...)
	if code != 0 {
		t.Fatalf("sequential serve run exited %d", code)
	}
	if *update {
		if err := os.WriteFile(serveGoldenPath, []byte(seq), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", serveGoldenPath, len(seq))
	}
	golden, err := os.ReadFile(serveGoldenPath)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if diff := firstDiff(string(golden), seq); diff != "" {
		t.Errorf("-jobs 1 stdout diverges from %s:\n%s", serveGoldenPath, diff)
	}
	par, _, code := runCapture(t, append([]string{"-jobs", "4"}, args...)...)
	if code != 0 {
		t.Fatalf("concurrent serve run exited %d", code)
	}
	if diff := firstDiff(seq, par); diff != "" {
		t.Errorf("-jobs 4 stdout diverges from -jobs 1:\n%s", diff)
	}
}

// TestServeUnknownDevice covers the command's error path.
func TestServeUnknownDevice(t *testing.T) {
	_, errOut, code := runCapture(t, "-device", "no-such-gpu")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if errOut == "" {
		t.Fatal("no error message")
	}
}

// TestServeDeviceFlag: -device reaches the load generator, so every row
// of the report names the chosen device.
func TestServeDeviceFlag(t *testing.T) {
	out, errOut, code := runCapture(t, "-device", "v100", "-requests", "600", "-seed", "42")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var header []string
	inRows := false
	tables, rows := 0, 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(line, "note:"):
			inRows = false
		case strings.HasPrefix(line, "=="):
			inRows = false
			tables++
		case strings.Trim(line, "-") == "":
			inRows = true
		case !inRows:
			header = f
		default:
			rows++
			if col := slices.Index(header, "device"); col < 0 || f[col] != "V100" {
				t.Errorf("row %q under header %q does not name V100", line, header)
			}
		}
	}
	if tables != 3 || rows == 0 {
		t.Fatalf("%d tables, %d rows in:\n%s", tables, rows, out)
	}
}

// TestServeRejectsArguments: the command takes flags only, so a stray
// word (such as the old subcommand name) exits 2 instead of being
// ignored.
func TestServeRejectsArguments(t *testing.T) {
	out, errOut, code := runCapture(t, "-requests", "1", "serve")
	if code != 2 || out != "" || !strings.Contains(errOut, "unexpected arguments") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out, errOut)
	}
}

// syncBuffer is a bytes.Buffer safe to read while another goroutine
// writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeListenGracefulStop drives `winograd-serve -listen` end to end: with a
// request held inside the handler, SIGTERM closes the listener, the
// request still completes with 200, and only then does the batched
// server close and the command exit 0.
func TestServeListenGracefulStop(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var enterOnce, releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	prev := wrapHandler
	wrapHandler = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			enterOnce.Do(func() { close(entered) })
			<-release
			h.ServeHTTP(w, r)
		})
	}
	defer func() { wrapHandler = prev }()

	var errOut syncBuffer
	exit := make(chan int, 1)
	go func() { exit <- run([]string{"-listen", "127.0.0.1:0"}, &bytes.Buffer{}, &errOut) }()
	addrRE := regexp.MustCompile(` at (127\.0\.0\.1:\d+) `)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(5 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(errOut.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server did not come up; stderr:\n%s", errOut.String())
		}
	}

	spec, _, _ := serve.DemoModel(42).Layer("conv_a")
	body, err := json.Marshal(map[string]any{"device": "RTX2070", "layer": "conv_a", "image": make([]float32, spec.InLen())})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		code   int
		output int
		err    error
	}
	replied := make(chan reply, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		var out struct{ Output []float32 }
		err = json.NewDecoder(resp.Body).Decode(&out)
		replied <- reply{code: resp.StatusCode, output: len(out.Output), err: err}
	}()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("request never reached the handler")
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown closes the listener first; the held request keeps its
	// connection.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("listener still accepting after SIGTERM")
		}
	}
	select {
	case code := <-exit:
		t.Fatalf("command exited %d with a request in flight", code)
	default:
	}
	releaseOnce.Do(func() { close(release) })

	select {
	case r := <-replied:
		if r.err != nil || r.code != http.StatusOK || r.output != spec.OutLen() {
			t.Fatalf("in-flight request: status %d, %d output floats, err %v", r.code, r.output, r.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight request never completed")
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d, want 0; stderr:\n%s", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("command did not exit after the drain")
	}
	if !strings.Contains(errOut.String(), "draining in-flight requests") {
		t.Errorf("stderr does not report the drain:\n%s", errOut.String())
	}
}
