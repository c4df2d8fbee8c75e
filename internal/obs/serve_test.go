package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// urbVar reads the "urb" expvar map from a server's /debug/vars.
func urbVar(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	var vars struct {
		URB map[string]float64 `json:"urb"`
	}
	if err := json.Unmarshal([]byte(get(t, "http://"+s.Addr()+"/debug/vars")), &vars); err != nil {
		t.Fatal(err)
	}
	return vars.URB
}

// TestServeCloseUnregistersExpvars: a closed server's gauges leave the
// process-global "urb" expvar, so an open server's /debug/vars holds
// only its own.
func TestServeCloseUnregistersExpvars(t *testing.T) {
	a, err := Serve("127.0.0.1:0", ServeOptions{Gauges: func() map[string]float64 { return map[string]float64{"a_only": 1} }})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Serve("127.0.0.1:0", ServeOptions{Gauges: func() map[string]float64 { return map[string]float64{"b_only": 2} }})
	if err != nil {
		t.Fatal(err)
	}
	if got := urbVar(t, a); len(got) != 2 || got["a_only"] != 1 || got["b_only"] != 2 {
		t.Fatalf("two open servers: urb = %v", got)
	}
	b.Close()
	if got := urbVar(t, a); len(got) != 1 || got["a_only"] != 1 {
		t.Fatalf("after closing the other server: urb = %v", got)
	}
}

// TestMetricsDeliverLatency: /metrics carries the broadcast→deliver
// latency of the merged tracers, in milliseconds of their nanosecond
// clocks, and no latency line without tracers.
func TestMetricsDeliverLatency(t *testing.T) {
	a, b := New(0, 0, nil), New(1, 0, nil)
	ms := int64(time.Millisecond)
	a.EmitAt(ms, 0, Event{Kind: EvBroadcast, Msg: mid(1, "m")})
	a.EmitAt(3*ms, 0, Event{Kind: EvDeliver, Msg: mid(1, "m")})
	b.EmitAt(5*ms, 1, Event{Kind: EvDeliver, Msg: mid(1, "m")})
	// A delivery whose BROADCAST the trace lost is no sample.
	b.EmitAt(9*ms, 1, Event{Kind: EvDeliver, Msg: mid(2, "lost")})
	gauges := func() map[string]float64 { return map[string]float64{"urb_deliveries_total": 3} }

	traced, err := Serve("127.0.0.1:0", ServeOptions{Tracers: []*Tracer{a, b}, Nanos: true, Gauges: gauges})
	if err != nil {
		t.Fatal(err)
	}
	defer traced.Close()
	text := get(t, "http://"+traced.Addr()+"/metrics")
	for _, line := range []string{"urb_deliver_latency_ms_mean 3\n", "urb_deliver_latency_ms_max 4\n", "urb_deliveries_total 3\n"} {
		if !strings.Contains(text, line) {
			t.Fatalf("/metrics lacks %q:\n%s", line, text)
		}
	}
	for _, q := range []string{"p50", "p99"} {
		if !strings.Contains(text, "urb_deliver_latency_ms_"+q+" ") {
			t.Fatalf("/metrics lacks the %s latency:\n%s", q, text)
		}
	}

	plain, err := Serve("127.0.0.1:0", ServeOptions{Nanos: true, Gauges: gauges})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if text := get(t, "http://"+plain.Addr()+"/metrics"); strings.Contains(text, "latency") {
		t.Fatalf("/metrics without tracers has latency lines:\n%s", text)
	}
}
