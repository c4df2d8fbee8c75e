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
	"time"

	"anonurb/internal/metrics"
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
	// Prometheus text exposition format and under the "urb" expvar
	// while the server is open. It is called once per scrape and must
	// return a fresh map: /metrics adds its latency lines to it.
	// node.LabeledGauges over a cluster's nodes is the canonical
	// source. May be nil.
	Gauges func() map[string]float64
	// Explain, when set, answers /explain?msg=<tag-hex:body> requests —
	// liverun wires it to a node's stall explainer. May be nil.
	Explain func(msg string) (Explanation, bool)
}

// handler builds the debug mux:
//
//	/debug/vars          expvar (incl. the "urb" gauge map)
//	/debug/pprof/...     net/http/pprof
//	/metrics             Prometheus text exposition of Gauges, plus the
//	                     broadcast→deliver latency of the merged tracers
//	/trace.json          Chrome trace-event JSON of the merged tracers
//	/report              human-readable per-message timeline report
//	/explain?msg=...     stall explainer (when wired)
func handler(opts ServeOptions) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		g := make(map[string]float64)
		if opts.Gauges != nil {
			g = opts.Gauges()
		}
		if opts.Nanos {
			deliverLatency(g, Merge(opts.Tracers...))
		}
		WritePrometheus(w, g)
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

// deliverLatency adds the mean, median, 99th percentile and maximum of
// the broadcast→deliver latencies in evs to g, in milliseconds of a
// wall-nanosecond clock: one sample per delivery whose BROADCAST the
// trace still holds. It adds nothing when there is no such delivery.
func deliverLatency(g map[string]float64, evs []Event) {
	h := metrics.NewHistogram()
	for _, tl := range Timelines(evs) {
		for i := range tl.Delivers {
			if lat, ok := tl.Latency(i); ok {
				h.Observe(lat)
			}
		}
	}
	if h.Count() == 0 {
		return
	}
	const ms = float64(time.Millisecond)
	g["urb_deliver_latency_ms_mean"] = h.Mean() / ms
	g["urb_deliver_latency_ms_p50"] = float64(h.Quantile(0.5)) / ms
	g["urb_deliver_latency_ms_p99"] = float64(h.Quantile(0.99)) / ms
	g["urb_deliver_latency_ms_max"] = float64(h.Max()) / ms
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
	s := &Server{ln: ln, srv: &http.Server{Handler: handler(opts)}}
	publishExpvars(s, opts.Gauges)
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr reports the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the endpoint down and takes its gauges out of the "urb"
// expvar.
func (s *Server) Close() error {
	expvarMu.Lock()
	delete(expvarSources, s)
	expvarMu.Unlock()
	return s.srv.Close()
}

// --- expvar ------------------------------------------------------------

var (
	expvarMu      sync.Mutex
	expvarSources = make(map[*Server]func() map[string]float64)
	expvarOnce    sync.Once
)

// publishExpvars registers s's gauges under the process-global "urb"
// expvar until s closes. expvar.Publish panics on duplicate names, so
// the var is published once and merges every open server's source.
func publishExpvars(s *Server, g func() map[string]float64) {
	if g == nil {
		return
	}
	expvarMu.Lock()
	expvarSources[s] = g
	expvarMu.Unlock()
	expvarOnce.Do(func() {
		expvar.Publish("urb", expvar.Func(func() any {
			// Copy the sources out first: a source may wait for a node
			// goroutine, which must not hold up Serve or Close.
			expvarMu.Lock()
			srcs := make([]func() map[string]float64, 0, len(expvarSources))
			for _, src := range expvarSources {
				srcs = append(srcs, src)
			}
			expvarMu.Unlock()
			merged := make(map[string]float64)
			for _, src := range srcs {
				for k, v := range src() {
					merged[k] = v
				}
			}
			return merged
		}))
	})
}
