package node

import (
	"testing"
	"time"

	"anonurb/internal/admit"
	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
	"anonurb/internal/xrand"
)

// TestNodeFlowMapOnlyWithAdmission: only a node built WithAdmission
// keeps per-flow delivery counts. On any other, a tag from an unpinned
// source is its own flow, and the map would grow by one entry per
// delivered message.
func TestNodeFlowMapOnlyWithAdmission(t *testing.T) {
	mesh := transport.NewMesh(transport.MeshConfig{N: 2, Link: channel.Reliable{D: channel.FixedDelay(0)}, Unit: time.Millisecond})
	defer mesh.Close()
	proc := func() urb.Process { return urb.NewMajority(2, ident.NewSource(xrand.New(1)), urb.Config{}) }
	plain := New(proc(), mesh.Endpoint(0))
	admitted := New(proc(), mesh.Endpoint(1), WithAdmission(admit.Config{}))
	defer plain.Stop()
	defer admitted.Stop()
	if plain.flowDeliveries != nil || plain.FlowDeliveries() == nil || len(plain.FlowDeliveries()) != 0 {
		t.Fatal("a node without admission holds a flow map")
	}
	if admitted.flowDeliveries == nil {
		t.Fatal("a node with admission counts no flows")
	}
}
