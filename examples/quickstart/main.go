// Quickstart: five anonymous processes, one broadcasts, everyone
// URB-delivers exactly once — despite 20% of all frames being dropped by
// a chaos-injected Bernoulli loss model.
//
// The same node code runs twice: first on the in-process mesh
// transport, then on real UDP sockets over loopback. Only the transport
// constructor changes; the algorithm, the node lifecycle and the
// delivery plumbing are identical — that is the point of the
// transport-agnostic Node API.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"anonurb"
)

const (
	n        = 5
	lossRate = 0.2
)

// chaos wraps any transport in a 20% Bernoulli frame-loss model with a
// small random delay — the quintessential fair lossy channel.
func chaos(tr anonurb.Transport, seed uint64) anonurb.Transport {
	return anonurb.NewChaosTransport(tr, anonurb.ChaosConfig{
		Model: anonurb.Bernoulli{P: lossRate, D: anonurb.UniformDelay{Min: 0, Max: 2}},
		Unit:  time.Millisecond,
		Seed:  seed,
	})
}

// run starts one node per transport, URB-broadcasts a single message
// from node 2, and waits until every node has delivered it. The code is
// completely transport-agnostic. Node 0 additionally runs durable
// (WithStore): its deliveries and tag_ack pins are write-ahead-logged
// and its state checkpointed, so a crashed node 0 could be restarted
// with anonurb.RecoverNode — see examples/recovery for that full story.
func run(name string, transports []anonurb.Transport) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	st := anonurb.NewMemStore()
	nodes := make([]*anonurb.Node, n)
	inboxes := make([]<-chan anonurb.NodeDelivery, n)
	tracers := make([]*anonurb.Tracer, n)
	for i := range nodes {
		// Each process: Algorithm 1 (majority URB), its own private tag
		// stream, no identity anywhere.
		proc := anonurb.NewMajority(n, anonurb.NewTagSource(uint64(1000+i)), anonurb.Config{})
		// Every node records its message lifecycle (broadcast, first
		// send, receptions, evidence progress, delivery) into a bounded
		// trace ring.
		tracers[i] = anonurb.NewTracer(i, 0)
		opts := []anonurb.NodeOption{
			anonurb.WithTickEvery(5 * time.Millisecond),
			anonurb.WithSeed(uint64(i)),
			anonurb.WithTracer(tracers[i]),
		}
		if i == 0 {
			opts = append(opts, anonurb.WithStore(st),
				anonurb.WithCheckpointEvery(10*time.Millisecond))
		}
		nodes[i] = anonurb.NewNode(proc, chaos(transports[i], uint64(i)), opts...)
		inboxes[i] = nodes[i].Deliveries() // subscribe before Start
	}
	for _, nd := range nodes {
		if err := nd.Start(ctx); err != nil {
			return err
		}
		defer nd.Stop()
	}

	start := time.Now()
	id, err := nodes[2].Broadcast([]byte("hello, anonymous world"))
	if err != nil {
		return err
	}
	fmt.Printf("[%s] node 2 URB-broadcast %s\n", name, id)

	for i, inbox := range inboxes {
		select {
		case d := <-inbox:
			fmt.Printf("[%s] node %d URB-delivered %q after %v (fast=%v)\n",
				name, i, d.Body(), time.Since(start).Round(time.Millisecond), d.Fast)
		case <-ctx.Done():
			return fmt.Errorf("[%s] node %d never delivered: %w", name, i, ctx.Err())
		}
	}
	ss := nodes[0].StoreStats()
	if err := ss.Err; err != nil {
		return fmt.Errorf("[%s] durable node store error: %w", name, err)
	}
	if ss.WALAppends == 0 {
		return fmt.Errorf("[%s] durable node logged nothing", name)
	}
	fmt.Printf("[%s] node 0 persisted its state along the way: %d WAL records (%dB), %d checkpoint(s)\n",
		name, ss.WALAppends, ss.WALBytes, ss.Checkpoints)

	// Live introspection: the same counters and trace every long-running
	// deployment would watch, served over HTTP for the duration of a few
	// requests — /metrics (Prometheus text: each node's counters and set
	// sizes, plus the traced broadcast→deliver latency), /trace.json
	// (load it in ui.perfetto.dev), /debug/pprof, /explain.
	srv, err := anonurb.ServeDebug("127.0.0.1:0", nodes, tracers)
	if err != nil {
		return fmt.Errorf("[%s] debug endpoint: %w", name, err)
	}
	defer srv.Close()
	promText, err := fetch("http://" + srv.Addr() + "/metrics")
	if err != nil {
		return fmt.Errorf("[%s] debug endpoint: %w", name, err)
	}
	lines := strings.Split(strings.TrimSpace(promText), "\n")
	for _, want := range []string{"urb_deliveries_total", "urb_deliver_latency_ms_p99"} {
		found := false
		for _, line := range lines {
			if strings.HasPrefix(line, want) {
				fmt.Printf("[%s] /metrics: %s\n", name, line)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("[%s] /metrics has no %s line", name, want)
		}
	}
	merged := anonurb.MergeTraces(tracers...)
	fmt.Printf("[%s] lifecycle trace: %d events across %d nodes (GET /trace.json for Perfetto)\n",
		name, len(merged), n)
	return nil
}

// fetch GETs a debug-endpoint URL and returns the body.
func fetch(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b), nil
}

func main() {
	// Round 1: in-process mesh transport. The mesh's own links are
	// reliable here — all the loss comes from the chaos wrapper.
	mesh := anonurb.NewMeshNetwork(anonurb.MeshConfig{
		N:    n,
		Link: anonurb.Reliable{D: anonurb.FixedDelay(0)},
		Seed: 7,
	})
	meshTransports := make([]anonurb.Transport, n)
	for i := range meshTransports {
		meshTransports[i] = mesh.Endpoint(i)
	}
	if err := run("mesh", meshTransports); err != nil {
		fmt.Println("mesh run failed:", err)
		os.Exit(1)
	}

	// Round 2: the SAME node code over real UDP sockets on loopback,
	// still under 20% injected loss (on top of whatever the kernel
	// drops).
	udp, err := anonurb.UDPGroup(n, 0)
	if err != nil {
		fmt.Println("udp setup failed:", err)
		os.Exit(1)
	}
	udpTransports := make([]anonurb.Transport, n)
	for i := range udpTransports {
		udpTransports[i] = udp[i]
	}
	if err := run("udp", udpTransports); err != nil {
		fmt.Println("udp run failed:", err)
		os.Exit(1)
	}

	fmt.Printf("\nsame node code, two networks, %d%% loss on both: URB held.\n",
		int(lossRate*100))
}
