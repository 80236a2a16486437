package server

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// StartDebug binds an HTTP debug listener on addr (e.g. "127.0.0.1:0") and
// serves the shard's observability surface in the background:
//
//	/debug/obs     — the metric registry snapshot (counters, gauges,
//	                 latency/cost histograms with p50/p95/p99) as JSON
//	/debug/traces  — the ring of recent request span trees, plus the
//	                 slowest request seen, as JSON
//	/debug/vars    — expvar (cmdline, memstats)
//	/debug/pprof/  — net/http/pprof profiles
//
// The endpoint is for operators and tests, not for untrusted networks: bind
// it to loopback. It stops when the server is Closed. Returns the bound
// address.
func (s *Server) StartDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("server: already closed")
	}
	if s.debugLn != nil {
		s.mu.Unlock()
		ln.Close()
		return nil, fmt.Errorf("server: debug endpoint already started")
	}
	s.debugLn = ln
	s.mu.Unlock()

	mux := http.NewServeMux()
	mux.HandleFunc("/debug/obs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.Obs().Snapshot().JSON())
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := map[string]interface{}{
			"total":   s.tracer.Total(),
			"slowest": s.tracer.Slowest(),
			"recent":  s.tracer.Traces(),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		srv.Serve(ln) // returns once Close closes the listener
	}()
	return ln.Addr(), nil
}
