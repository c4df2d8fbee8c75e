package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
)

// ServeOptions configures the live debug endpoint.
type ServeOptions struct {
	// Tracers are the node tracers to expose under /trace.json and
	// /report (merged by timestamp).
	Tracers []*Tracer
	// Nanos marks the tracers' clocks as wall nanoseconds (the live
	// runtime); the Chrome exporter then scales to microseconds.
	Nanos bool
	// Gauges supplies the metric snapshot rendered at /metrics in
	// Prometheus text exposition format and under the "urb" expvar.
	// node.Metrics.Gauges is the canonical source. May be nil.
	Gauges func() map[string]float64
	// Explain, when set, answers /explain?msg=<tag-hex:body> requests —
	// liverun wires it to a node's stall explainer. May be nil.
	Explain func(msg string) (Explanation, bool)
}

// Handler builds the debug mux:
//
//	/debug/vars          expvar (incl. the "urb" gauge map)
//	/debug/pprof/...     net/http/pprof
//	/metrics             Prometheus text exposition of Gauges
//	/trace.json          Chrome trace-event JSON of the merged tracers
//	/report              human-readable per-message timeline report
//	/explain?msg=...     stall explainer (when wired)
func Handler(opts ServeOptions) http.Handler {
	publishExpvars(opts.Gauges)
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if opts.Gauges == nil {
			return
		}
		WritePrometheus(w, opts.Gauges())
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, Run{Events: Merge(opts.Tracers...)}, opts.Nanos)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		_ = WriteReport(w, Merge(opts.Tracers...))
	})
	mux.HandleFunc("/explain", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if opts.Explain == nil {
			http.Error(w, "no explainer wired", http.StatusNotFound)
			return
		}
		ex, ok := opts.Explain(r.URL.Query().Get("msg"))
		if !ok {
			http.Error(w, "unknown msg", http.StatusNotFound)
			return
		}
		fmt.Fprintln(w, ex)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprint(w, "anonurb debug endpoint\n\n/debug/vars\n/debug/pprof/\n/metrics\n/trace.json\n/report\n/explain?msg=<id>\n")
	})
	return mux
}

// WritePrometheus renders a gauge map in the Prometheus text exposition
// format, keys sorted for deterministic scrapes. Keys may carry label
// syntax (`urb_deliver_latency_ms{quantile="0.5"}`).
func WritePrometheus(w http.ResponseWriter, gauges map[string]float64) {
	keys := make([]string, 0, len(gauges))
	for k := range gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s\n", k, strconv.FormatFloat(gauges[k], 'g', -1, 64))
	}
}

// Server is a live debug endpoint bound to a listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug endpoint on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns immediately; the caller Closes it.
func Serve(addr string, opts ServeOptions) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(opts)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down.
func (s *Server) Close() error { return s.srv.Close() }

// --- expvar ------------------------------------------------------------

var (
	expvarMu      sync.Mutex
	expvarSources []func() map[string]float64
	expvarOnce    sync.Once
)

// publishExpvars registers gauges under the process-global "urb" expvar.
// expvar.Publish panics on duplicate names, so the var is published
// once and fans out to every handler's source.
func publishExpvars(g func() map[string]float64) {
	if g == nil {
		return
	}
	expvarMu.Lock()
	expvarSources = append(expvarSources, g)
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("urb", expvar.Func(func() any {
			expvarMu.Lock()
			defer expvarMu.Unlock()
			merged := make(map[string]float64)
			for _, src := range expvarSources {
				for k, v := range src() {
					merged[k] = v
				}
			}
			return merged
		}))
	})
}
