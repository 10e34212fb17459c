package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/gpu"
	"repro/internal/serve"
	"repro/internal/store"
)

// run is the whole command behind an injectable argv and output
// streams, so the golden test can assert on exact stdout bytes. By
// default it runs the deterministic load generator against the demo
// model — the phased arrival stream that exercises every batch-size
// sweet spot, padded cuts, and a thousand-plus in-flight requests — and
// prints the report (latency percentiles, batch occupancy, sampled real
// executions) to stdout, byte-identical for a fixed -seed across runs
// and -jobs counts. With -store the algorithm selection warms from the
// content-addressed tune store; otherwise the analytic model stands in
// for cold shapes.
//
// With -listen the real batched server starts instead, serving POST
// /v1/infer until SIGINT or SIGTERM (see listenAndServe).
func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("winograd-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	requests := fs.Int("requests", 4000, "load-generator arrivals")
	seed := fs.Uint64("seed", 42, "load-generator seed (the report is a pure function of seed and config)")
	jobs := fs.Int("jobs", runtime.GOMAXPROCS(0), "concurrent sampled batch executions (1 = sequential)")
	waves := fs.Int("waves", 4, "occupancy-waves to simulate per tune measurement")
	device := fs.String("device", "rtx2070", "registered device name")
	storePath := fs.String("store", "", "store/v1 tune store to warm the algorithm selection from (empty = analytic model)")
	execEvery := fs.Int("serveexec", 23, "really execute every K-th dispatched batch (<0 disables)")
	listen := fs.String("listen", "", "serve POST /v1/infer at this address instead of generating load")
	markdown := fs.Bool("markdown", false, "emit GitHub-flavoured markdown")
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "winograd-serve: unexpected arguments %q\n", fs.Args())
		return 2
	}
	dev, err := gpu.DeviceByName(*device)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-serve: %v\n", err)
		return 2
	}
	sel := serve.NewTuneSelector(*waves)
	if *storePath != "" {
		st, rep := store.Load(*storePath)
		for _, w := range rep.Warnings {
			fmt.Fprintln(stderr, w)
		}
		n, warns := sel.WarmFromStore(st)
		for _, w := range warns {
			fmt.Fprintln(stderr, w)
		}
		fmt.Fprintf(stderr, "warmed %d tune measurements from %s\n", n, *storePath)
	}

	if *listen != "" {
		return listenAndServe(*listen, dev, sel, *seed, stderr)
	}

	start := time.Now()
	rep, err := serve.Generate(serve.LoadConfig{
		Seed:      *seed,
		Requests:  *requests,
		Device:    dev,
		Selector:  sel,
		ExecEvery: *execEvery,
		Jobs:      *jobs,
	})
	if err != nil {
		fmt.Fprintf(stderr, "winograd-serve: %v\n", err)
		return 1
	}
	if *markdown {
		fmt.Fprint(stdout, rep.Markdown())
	} else {
		fmt.Fprint(stdout, rep.Format())
	}
	fmt.Fprintf(stderr, "simulated %d arrivals (%d rejected), peak in-flight %d, %d batches (%d real) in %v on %d workers\n",
		rep.Total, rep.Rejected, rep.MaxInFlight, sumBatches(rep.Batches), rep.Sampled,
		time.Since(start).Round(time.Millisecond), *jobs)
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
		Device:   dev,
	})
	if err != nil {
		fmt.Fprintf(stderr, "winograd-serve: %v\n", err)
		return 1
	}
	defer s.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "winograd-serve: %v\n", err)
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
		fmt.Fprintf(stderr, "winograd-serve: %v\n", err)
		return 1
	case sig := <-stop:
		fmt.Fprintf(stderr, "winograd-serve: %v: draining in-flight requests\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
		fmt.Fprintf(stderr, "winograd-serve: shutdown: %v\n", err)
		return 1
	}
	<-served // http.ErrServerClosed once Shutdown has begun
	return 0
}
