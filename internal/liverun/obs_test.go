package liverun

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/urb"
)

// TestLiveClusterTracing runs a traced cluster to convergence and checks
// the merged lifecycle trace, the timelines, the explainer and the live
// debug endpoint end to end.
func TestLiveClusterTracing(t *testing.T) {
	const n = 3
	col := newCollector()
	cfg := fastCfg(n, majorityFactory(n), 0.05, col.onDeliver)
	cfg.TraceRing = obs.DefaultCapacity
	c := Start(cfg)
	defer c.Stop()

	id, err := c.Node(0).Broadcast([]byte("traced"))
	if err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return col.deliveredBy("traced") == n }) {
		t.Fatalf("cluster did not converge: %d/%d", col.deliveredBy("traced"), n)
	}

	tracers := c.Tracers()
	if len(tracers) != n {
		t.Fatalf("tracers = %d, want %d", len(tracers), n)
	}
	evs := obs.Merge(tracers...)
	var sawBroadcast bool
	delivers := 0
	for _, e := range evs {
		switch e.Kind {
		case obs.EvBroadcast:
			if e.Msg == id && e.Node == 0 {
				sawBroadcast = true
			}
		case obs.EvDeliver:
			if e.Msg == id {
				delivers++
			}
		}
	}
	if !sawBroadcast {
		t.Fatal("merged trace has no BROADCAST event for the message")
	}
	if delivers != n {
		t.Fatalf("merged trace has %d DELIVER events, want %d", delivers, n)
	}

	tls := obs.Timelines(evs)
	var tl *obs.Timeline
	for _, cand := range tls {
		if cand.Msg == id {
			tl = cand
		}
	}
	if tl == nil {
		t.Fatal("no timeline for the message")
	}
	if len(tl.Delivers) != n {
		t.Fatalf("timeline delivers = %d, want %d", len(tl.Delivers), n)
	}
	for i := range tl.Delivers {
		if lat, ok := tl.Latency(i); !ok || lat < 0 {
			t.Fatalf("latency[%d] = %d ok=%v", i, lat, ok)
		}
	}

	ex, err := c.Explain(0, id)
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Delivered || ex.Stalled() {
		t.Fatalf("explain after convergence: %+v", ex)
	}

	srv, err := c.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	body := httpGet(t, base+"/trace.json")
	tr, err := obs.ReadChromeTrace(strings.NewReader(body))
	if err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if err := obs.CheckChromeTrace(tr); err != nil {
		t.Fatalf("trace.json fails validation: %v", err)
	}

	rep := httpGet(t, base+"/explain?msg="+id.String())
	if !strings.Contains(rep, "delivered") {
		t.Fatalf("/explain report:\n%s", rep)
	}

	metrics := httpGet(t, base+"/metrics")
	checkNodeLabels(t, metrics, n)
	for _, q := range []string{"mean", "p50", "p99", "max"} {
		if !strings.Contains(metrics, "\nurb_deliver_latency_ms_"+q+" ") {
			t.Fatalf("traced /metrics lacks the %s latency:\n%s", q, metrics)
		}
	}

	report := httpGet(t, base+"/report")
	if !strings.Contains(report, "DELIVER") && !strings.Contains(report, id.String()) {
		t.Fatalf("/report output:\n%s", report)
	}

	// Emits are per message, never per frame: once Majority has
	// retransmitted for a while, the trace is a fraction of the wire
	// traffic, while a per-copy emit would outgrow it. Events are read
	// before sends, since both counts only grow.
	sent := func() (total uint64) {
		for p := 0; p < n; p++ {
			msgs, _ := c.Node(p).MessageStats()
			total += msgs
		}
		return total
	}
	if !waitFor(t, 10*time.Second, func() bool { return sent() >= 500 }) {
		t.Fatalf("cluster sent only %d wire messages", sent())
	}
	var events uint64
	for _, tr := range tracers {
		events += tr.Total()
	}
	if s := sent(); events > s {
		t.Fatalf("%d lifecycle events for %d wire messages sent: emits leak per frame", events, s)
	}
}

// TestLiveJoinTraceChecks: the merged trace of a traced cluster that
// grew by a joiner passes the URB checker. The joiner's ring holds an
// ADOPT for each message of the history it took from its donor, which is
// what credits it with that history.
func TestLiveJoinTraceChecks(t *testing.T) {
	const n = 3
	col := newCollector()
	factory := func(_ int, tags *ident.Source, clock func() int64) urb.Process {
		return urb.NewHeartbeatHost(tags, 200, 1, clock, urb.Config{})
	}
	cfg := fastCfg(n, factory, 0.1, col.onDeliver)
	cfg.TraceRing = obs.DefaultCapacity
	c := Start(cfg)
	defer c.Stop()

	bodies := []string{"pre-0", "pre-1"}
	for i, b := range bodies {
		c.Broadcast(i, []byte(b))
	}
	if !waitFor(t, 15*time.Second, func() bool { return col.deliveredBy("pre-0") == n && col.deliveredBy("pre-1") == n }) {
		t.Fatal("pre-join history never delivered everywhere")
	}
	joiner, err := c.Join(nil)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	c.Broadcast(joiner, []byte("post-0"))
	c.Broadcast(0, []byte("post-1"))
	if !waitFor(t, 15*time.Second, func() bool { return col.deliveredBy("post-0") == n+1 && col.deliveredBy("post-1") == n+1 }) {
		t.Fatalf("post-join convergence stuck: %d, %d", col.deliveredBy("post-0"), col.deliveredBy("post-1"))
	}

	run := obs.Run{N: c.N(), Events: obs.Merge(c.Tracers()...)}
	adopted := 0
	for _, e := range run.Events {
		if e.Kind == obs.EvAdopt && int(e.Node) == joiner {
			adopted++
		}
	}
	if adopted != len(bodies) {
		t.Fatalf("joiner traced %d ADOPT events, want %d", adopted, len(bodies))
	}
	rep, err := run.Check(false)
	if err != nil || !rep.OK() || rep.Broadcast != 4 {
		t.Fatalf("merged trace check: %v %+v", err, rep)
	}
}

// TestLiveClusterTracingOff checks the zero-valued knob: no tracers, and
// the debug endpoint still serves every node's gauges, with no latency
// lines and an empty trace.
func TestLiveClusterTracingOff(t *testing.T) {
	const n = 2
	col := newCollector()
	c := Start(fastCfg(n, majorityFactory(n), 0, col.onDeliver))
	defer c.Stop()
	if got := c.Tracers(); len(got) != 0 {
		t.Fatalf("tracing off but %d tracers exist", len(got))
	}
	if c.Node(0).Tracer() != nil {
		t.Fatal("tracing off but node has a tracer")
	}
	if _, err := c.Node(0).Broadcast([]byte("untraced")); err != nil {
		t.Fatal(err)
	}
	if !waitFor(t, 5*time.Second, func() bool { return col.deliveredBy("untraced") == n }) {
		t.Fatalf("cluster did not converge: %d/%d", col.deliveredBy("untraced"), n)
	}
	srv, err := c.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	metrics := httpGet(t, "http://"+srv.Addr()+"/metrics")
	checkNodeLabels(t, metrics, n)
	if strings.Contains(metrics, "latency") {
		t.Fatalf("untraced /metrics has latency lines:\n%s", metrics)
	}
	tr, err := obs.ReadChromeTrace(strings.NewReader(httpGet(t, "http://"+srv.Addr()+"/trace.json")))
	if err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	if len(tr.TraceEvents) != 0 {
		t.Fatalf("untraced /trace.json holds %d events", len(tr.TraceEvents))
	}
}

// checkNodeLabels checks that a /metrics text carries every node's
// counters under its {node="i"} label, each having delivered once.
func checkNodeLabels(t *testing.T, metrics string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		label := `{node="` + strconv.Itoa(i) + `"} `
		for _, name := range []string{"urb_sent_msgs_total", "urb_recv_msgs_total", "urb_sent_bytes_total"} {
			if !strings.Contains(metrics, "\n"+name+label) {
				t.Fatalf("/metrics lacks %s for node %d:\n%s", name, i, metrics)
			}
		}
		if !strings.Contains(metrics, "\nurb_deliveries_total"+label+"1\n") {
			t.Fatalf("/metrics does not show node %d's one delivery:\n%s", i, metrics)
		}
	}
}

func httpGet(t *testing.T, url string) string {
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
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}
