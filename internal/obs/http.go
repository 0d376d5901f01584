package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// MetricsHandler serves the registry in the Prometheus text format.
func (r *Registry) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// ReadHeaderTimeout bounds how long an HTTP server waits for a client's
// request headers, so an idle or slow client cannot pin a connection.
// The metrics server sets no WriteTimeout: /debug/pprof/profile streams
// for 30 s.
const ReadHeaderTimeout = 10 * time.Second

// MetricsServer is a live observability endpoint: /metrics (Prometheus
// text) plus the standard /debug/pprof/ handlers, served while a run is
// in flight.
type MetricsServer struct {
	l   net.Listener
	srv *http.Server
}

// StartMetricsServer listens on addr (":0" picks a free port) and serves
// the registry and pprof until Close.
func StartMetricsServer(addr string, reg *Registry) (*MetricsServer, error) {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.MetricsHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: metrics listener: %w", err)
	}
	s := &MetricsServer{l: l, srv: &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}}
	go s.srv.Serve(l) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.l.Addr().String() }

// Close stops the server immediately, dropping in-flight requests. For a
// clean exit prefer Shutdown (or the DrainShutdown helper).
func (s *MetricsServer) Close() error { return s.srv.Close() }

// Shutdown stops accepting connections and waits for in-flight requests
// until ctx expires, mirroring http.Server.Shutdown.
func (s *MetricsServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }
