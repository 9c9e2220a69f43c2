package obs

import (
	"errors"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"strconv"
	"strings"
)

// acceptsProm reports whether an Accept header asks for the Prometheus
// text exposition: a text/plain or application/openmetrics-text media
// range with a nonzero q-value. It parses media ranges rather than
// substring-matching, because "text/plain;q=0" explicitly refuses the
// type — a client sending it must keep getting the JSON snapshot.
func acceptsProm(accept string) bool {
	for _, rng := range strings.Split(accept, ",") {
		params := strings.Split(rng, ";")
		mediaType := strings.ToLower(strings.TrimSpace(params[0]))
		if mediaType != "text/plain" && mediaType != "application/openmetrics-text" {
			continue
		}
		q := 1.0
		for _, p := range params[1:] {
			if v, ok := strings.CutPrefix(strings.ToLower(strings.TrimSpace(p)), "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					q = f
				}
			}
		}
		if q > 0 {
			return true
		}
	}
	return false
}

// Handler serves the registry's snapshot, content-negotiated: a
// Prometheus scrape (an Accept media range of text/plain or
// application/openmetrics-text with nonzero q) gets the text
// exposition, everything else the JSON snapshot (nil registry → empty
// snapshot, still valid either way). It is the one route to both.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if acceptsProm(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", PromContentType)
			w.Write(r.Snapshot().Prom())
			return
		}
		data, err := r.Snapshot().JSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(data, '\n'))
	})
}

// NewServeMux builds the operator mux: /metrics (JSON, or Prometheus
// text for scrapers via content negotiation) and the standard
// /debug/pprof/ endpoints.
func NewServeMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.HandleFunc("/debug/pprof/", netpprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	return mux
}

// Serve listens on addr and serves the operator mux in a background
// goroutine, returning the bound server (Addr is resolved, so ":0"
// callers can discover the port). Bind failures — a busy port, a bad
// address — are returned synchronously so callers fail fast at startup.
// A Serve failure after a successful bind lands on the returned error
// channel, which is closed when the listener stops (a clean Close/
// Shutdown delivers no error).
func Serve(addr string, r *Registry) (*http.Server, <-chan error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Addr: ln.Addr().String(), Handler: NewServeMux(r)}
	errc := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
		close(errc)
	}()
	return srv, errc, nil
}
