package cli

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// The tail every daemon main shares (spsd, spsfleet): its logger, and
// listen → serve → signal → drain → shutdown → exit.

// Logger builds a daemon's structured logger on stderr from validated
// -log-level and -log-format values, tagging every record with the
// service name.
func Logger(level, format, service string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: LogLevel(level)}
	var h slog.Handler = slog.NewJSONHandler(os.Stderr, opts)
	if format == "text" {
		h = slog.NewTextHandler(os.Stderr, opts)
	}
	return slog.New(h).With("service", service)
}

// ServeUntilSignal listens on addr, writes the bound address to
// addrFile when one is named, logs "listening" with attrs, and serves
// h. SIGTERM or SIGINT drains — jobs first, so everything accepted
// finishes or checkpoints, then the listener closes within 5 s so late
// pollers get clean errors — and exits 0. A listen or serve failure
// exits 1. It never returns.
func ServeUntilSignal(addr, addrFile string, h http.Handler, drain func(context.Context), log *slog.Logger, attrs ...any) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		Exit(Outcome{RunErr: err})
	}
	bound := ln.Addr().String()
	if addrFile != "" {
		if err := os.WriteFile(addrFile, []byte(bound+"\n"), 0o644); err != nil {
			Exit(Outcome{RunErr: err})
		}
	}
	log.Info("listening", append([]any{"addr", bound}, attrs...)...)

	httpSrv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-ctx.Done():
		stop()
		log.Info("signal received, draining")
		drain(context.Background())
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(shutCtx)
		Exit(Outcome{})
	case err := <-serveErr:
		Exit(Outcome{RunErr: fmt.Errorf("%s: serve: %w", filepath.Base(os.Args[0]), err)})
	}
}
