package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Mux returns the observability ServeMux for a registry:
//
//	/metrics       Prometheus text exposition (runtime-sampled per scrape)
//	/debug/events  recent audit events as JSON (?n=N, ?type=T filter)
//	/debug/trace   one retained trace by ?id= (waterfall; ?format=text
//	               renders it as indented text); without id, recent
//	               retained traces (?n=N)
//	/debug/slow    recent slow-query log entries as JSON (?n=N)
//	/debug/pprof/  Go profiling endpoints (heap, goroutine, profile, …)
//
// Callers that serve additional endpoints (core's /healthz and
// /debug/ledger) register them on the returned mux.
func Mux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		SampleRuntime(r) // scrape-time freshness for the runtime gauges
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, req *http.Request) {
		var events []Event
		if typ := req.URL.Query().Get("type"); typ != "" {
			events = r.Events().RecentOfType(typ, queryInt(req, "n"))
		} else {
			events = r.Events().Recent(queryInt(req, "n"))
		}
		if events == nil {
			events = []Event{}
		}
		writeJSON(w, events)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		idStr := req.URL.Query().Get("id")
		if idStr == "" {
			traces := r.Traces().Recent(queryInt(req, "n"))
			if traces == nil {
				traces = []*TraceRecord{}
			}
			writeJSON(w, traces)
			return
		}
		id, err := ParseTraceID(idStr)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rec, ok := r.Traces().Get(id)
		if !ok {
			http.Error(w, "trace not retained (evicted, sampled out, or never existed)", http.StatusNotFound)
			return
		}
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			WriteWaterfall(w, rec)
			return
		}
		writeJSON(w, rec)
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, req *http.Request) {
		slow := r.Traces().RecentSlow(queryInt(req, "n"))
		if slow == nil {
			slow = []*SlowQuery{}
		}
		writeJSON(w, slow)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Handler returns an http.Handler serving the registry (see Mux).
func Handler(r *Registry) http.Handler { return Mux(r) }

func queryInt(req *http.Request, key string) int {
	if s := req.URL.Query().Get(key); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return 0
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Server is a running observability HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// StartServer listens on addr (e.g. "127.0.0.1:0" for an ephemeral
// port) and serves Handler(r) in a background goroutine.
func StartServer(addr string, r *Registry) (*Server, error) {
	return StartServerHandler(addr, Handler(r))
}

// StartServerHandler is StartServer for an arbitrary handler — used by
// core to serve /healthz and /debug/ledger alongside the registry
// endpoints.
func StartServerHandler(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address, usable in a URL.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
