package node

import (
	"anonurb/internal/host"
	"anonurb/internal/store"
	"anonurb/internal/transport"
	"anonurb/internal/urb"
)

// Recover rebuilds a node from its durable state (DESIGN.md §9): the
// store's snapshot is restored into proc, the WAL appended since that
// snapshot is replayed on top, and the result is a node that — once
// started — resumes ACKing and retransmitting where its predecessor
// stopped instead of rejoining amnesiac. In particular it re-delivers
// nothing it already delivered and re-acks under the tag_acks it already
// pinned (uniformity and integrity across the restart).
//
// proc must be a freshly constructed process with the same constructor
// parameters as the crashed one, its tag Source built from the same seed
// at stream position zero — Restore fast-forwards it so post-recovery
// draws continue the predecessor's stream. tr is a fresh transport
// endpoint (the crashed node closed its own).
//
// The merged state is checkpointed back into the store, so a crash loop
// cannot grow the WAL without bound. The returned node keeps persisting
// to st; call Start to resume operation. All of this (host.Recover)
// happens before the node is built: on error no node exists, nothing was
// started, and tr is still the caller's.
func Recover(proc urb.Process, st store.Store, tr transport.Transport, opts ...Option) (*Node, error) {
	rec, err := host.Recover(proc, st)
	if err != nil {
		return nil, err
	}
	o := parse(opts)
	o.store = st
	n := build(proc, tr, o)
	n.countCheckpoint(rec.CheckpointBytes)
	n.recovery = rec
	return n, nil
}

// RecoveryStats reports what the Recover that built this node replayed:
// the snapshot payload size and the number of WAL records merged on top
// (both zero for nodes built with New).
func (n *Node) RecoveryStats() (snapshotBytes, walRecords int) {
	return n.recovery.SnapshotBytes, n.recovery.WALRecords
}
