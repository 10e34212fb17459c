package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/store"
)

// serveOpts carries the serve-subcommand flags out of run's flag set.
type serveOpts struct {
	requests  int
	seed      uint64
	jobs      int
	markdown  bool
	waves     int
	device    string
	storePath string
	execEvery int
	listen    string
}

// runServe is the `winograd-bench serve` subcommand. By default it runs
// the deterministic load generator against the demo model — the phased
// arrival stream that exercises every batch-size sweet spot, padded
// cuts, and a thousand-plus in-flight requests — and prints the report (latency percentiles, batch
// occupancy, sampled real executions) to stdout, byte-identical for a
// fixed -seed across runs and -jobs counts. With -store the algorithm
// selection warms from the content-addressed tune store; otherwise the
// analytic model stands in for cold shapes.
//
// With -listen the real batched server starts instead, serving POST
// /v1/infer until SIGINT or SIGTERM (see listenAndServe).
func runServe(o serveOpts, stdout, stderr io.Writer) int {
	dev, err := gpu.DeviceByName(o.device)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench serve: %v\n", err)
		return 2
	}
	sel := serve.NewTuneSelector(o.waves)
	if o.storePath != "" {
		st, rep := store.Load(o.storePath)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
		n, warns := sel.WarmFromStore(st)
		for _, w := range warns {
			fmt.Fprintln(stderr, w)
		}
		fmt.Fprintf(stderr, "warmed %d tune measurements from %s\n", n, o.storePath)
	}

	if o.listen != "" {
		return listenAndServe(o.listen, dev, sel, o.seed, stderr)
	}

	start := time.Now()
	rep, err := serve.Generate(serve.LoadConfig{
		Seed:      o.seed,
		Requests:  o.requests,
		Devices:   []gpu.Device{dev},
		Selector:  sel,
		ExecEvery: o.execEvery,
		Jobs:      o.jobs,
	})
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench serve: %v\n", err)
		return 1
	}
	if o.markdown {
		fmt.Fprint(stdout, rep.Markdown())
	} else {
		fmt.Fprint(stdout, rep.Format())
	}
	fmt.Fprintf(stderr, "simulated %d arrivals (%d rejected), peak in-flight %d, %d batches (%d real) in %v on %d workers\n",
		rep.Total, rep.Rejected, rep.MaxInFlight, sumBatches(rep.Batches), rep.Sampled,
		time.Since(start).Round(time.Millisecond), o.jobs)
	return 0
}

func sumBatches(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// HTTP timeouts of the -listen server. The read bounds cover the largest
// request body the handler accepts; the write bound covers a request's
// queueing, batching and execution; idle keep-alive connections are
// reaped after a while.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 60 * time.Second
	idleTimeout       = 120 * time.Second
	// shutdownGrace bounds how long a stop waits for in-flight requests
	// before closing their connections.
	shutdownGrace = 30 * time.Second
)

// wrapHandler wraps the -listen server's handler; tests use it to hold
// a request in flight.
var wrapHandler = func(h http.Handler) http.Handler { return h }

// listenAndServe runs the batched server behind an http.Server with
// timeouts until a stop signal arrives. Then http.Server.Shutdown stops
// accepting and waits for in-flight requests (up to shutdownGrace), and
// only after it the serve.Server closes, draining its queues.
func listenAndServe(addr string, dev gpu.Device, sel serve.Selector, seed uint64, stderr io.Writer) int {
	model := serve.DemoModel(seed)
	s, err := serve.NewServer(serve.Config{
		Model:    model,
		Selector: sel,
		Devices:  []gpu.Device{dev},
	})
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench serve: %v\n", err)
		return 1
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-bench serve: %v\n", err)
		return 1
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	srv := &http.Server{
		Handler:           wrapHandler(s.Handler()),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "serving layers %v on %s at %s (POST /v1/infer)\n",
		model.LayerNames(), dev.Name, ln.Addr())

	select {
	case err := <-served:
		fmt.Fprintf(stderr, "winograd-bench serve: %v\n", err)
		return 1
	case sig := <-stop:
		fmt.Fprintf(stderr, "winograd-bench serve: %v: draining in-flight requests\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		fmt.Fprintf(stderr, "winograd-bench serve: shutdown: %v\n", err)
		return 1
	}
	<-served // http.ErrServerClosed once Shutdown has begun
	return 0
}
