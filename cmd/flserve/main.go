// Command flserve is the equilibrium-as-a-service daemon: a persistent,
// multi-tenant HTTP/JSON server over the pricing engine and the federation
// facade. It answers high-QPS quote/solve requests from a sharded memo
// cache, runs admission-controlled federation sessions whose typed event
// streams are exposed as Server-Sent Events, and exports Prometheus-style
// metrics. SIGTERM/SIGINT drain gracefully: in-flight quotes finish,
// running sessions are cancelled through their contexts, and the process
// exits 0.
//
// Usage:
//
//	flserve [-addr 127.0.0.1:8080] [-cache-size 4096] [-max-sessions 2]
//	        [-max-queued 8] [-max-body 1048576] [-quote-timeout 10s]
//	        [-drain-timeout 15s]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"unbiasedfl/internal/cli"
	"unbiasedfl/internal/serve"
)

func main() {
	ctx, stop := cli.SignalContext()
	defer stop()
	if err := run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "flserve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context) error {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "daemon listen address")
		cacheSize    = flag.Int("cache-size", 4096, "quote cache capacity (distinct games)")
		maxSessions  = flag.Int("max-sessions", 2, "concurrently running federation sessions")
		maxQueued    = flag.Int("max-queued", 8, "queued sessions before 429")
		maxBody      = flag.Int64("max-body", 1<<20, "request body limit in bytes")
		quoteTimeout = flag.Duration("quote-timeout", 10*time.Second, "per-request quote/solve deadline")
		drainTimeout = flag.Duration("drain-timeout", 15*time.Second, "graceful shutdown budget")
	)
	flag.Parse()

	srv := serve.New(serve.Config{
		Addr:         *addr,
		CacheSize:    *cacheSize,
		MaxSessions:  *maxSessions,
		MaxQueued:    *maxQueued,
		MaxBody:      *maxBody,
		QuoteTimeout: *quoteTimeout,
		DrainTimeout: *drainTimeout,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	fmt.Fprintf(os.Stderr, "flserve: listening on %s\n", *addr)
	return srv.ListenAndServe(ctx)
}
