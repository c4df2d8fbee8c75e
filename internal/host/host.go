// Package host is the host protocol (DESIGN.md §1, §9, §13): what must
// happen around a urb.Step (write-ahead), around a restart (load,
// restore, WAL replay, Rejoin, compact) and around a join (solicit,
// assemble, vet, Restore, Adopt, baseline checkpoint), written once for
// both drivers — node.Node under real goroutines and clocks, sim.Engine
// under a virtual event heap.
//
// Like urb.Process the package is sans-IO: no goroutine, no clock (time
// is an int64 the driver passes in, in whatever unit it ticks), no
// transport. Loop is the event-loop body both drivers run: a driver
// feeds it frames, ticks and its own Steps with the current time, and
// it returns the deliveries to expose, the encoded frames to send and
// the error the store raised — on which the driver stops (fail-stop).
// Batching, the frame budget, the checkpoint cadence and how long to
// wait for a silent donor are driver settings.
package host

import (
	"errors"
	"fmt"

	"anonurb/internal/snapxfer"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
)

// ErrStaleSnapshot rejects a donor snapshot whose delta-stream
// incarnation is below the joiner's floor: state older than what the
// joiner has already held is a replay of superseded history, not a
// bootstrap.
var ErrStaleSnapshot = errors.New("host: donor snapshot below the joiner's incarnation floor")

// ServeWindow is how many chunks a donor answers per SNAPREQ. The joiner
// re-requests at its own cadence, so it bounds burst size, not throughput.
const ServeWindow = 8

// Core is one live process and its durable store. Store may be nil: the
// process is then not durable, Commit does nothing, and the core still
// serves snapshots to joiners.
type Core struct {
	Proc  urb.Process
	Store store.Store

	// donor is the cached chunk server of the transfer this core is
	// serving, replaced when a fresh solicitation arrives.
	donor *snapxfer.Donor
}

// Commit writes s ahead: one WAL record per durable event — pins and
// broadcasts, then deliveries — before the caller acts on anything in s,
// so before the ACK carrying a fresh tag_ack leaves and before a
// delivery is exposed. A crash after the write but before the action
// loses nothing; a crash before it loses an event the outside world
// never saw. It reports the records and payload bytes appended and stops
// at the first store error.
func (c *Core) Commit(s urb.Step) (records, bytes int, err error) {
	if c.Store == nil {
		return 0, 0, nil
	}
	put := func(ev urb.DurableEvent) {
		if err != nil {
			return
		}
		rec := ev.EncodeWAL()
		if err = c.Store.AppendWAL(rec); err == nil {
			records++
			bytes += len(rec)
		}
	}
	for _, ev := range s.Durable {
		put(ev)
	}
	for _, d := range s.Deliveries {
		put(urb.DeliverEvent(d))
	}
	return records, bytes, err
}

// checkpoint snapshots proc into st, compacting the WAL, and reports the
// snapshot size.
func checkpoint(proc urb.Process, st store.Store) (int, error) {
	sn, ok := proc.(urb.Snapshotter)
	if !ok {
		return 0, fmt.Errorf("host: %T has a store but cannot snapshot", proc)
	}
	snap := sn.Snapshot()
	if err := st.SaveSnapshot(snap); err != nil {
		return 0, err
	}
	return len(snap), nil
}

// ServeSnap is the donor side of the join protocol, given a SNAPREQ m: a
// fresh solicitation (ref 0) snapshots the current state into a chunk
// server, a resume request is answered from the cached one, and a
// request naming another donor's transfer is ignored. Up to ServeWindow
// chunks, sized under budget (0 = unbudgeted), are appended to
// out.Broadcasts, so they travel like all other traffic; the count is
// returned.
func (c *Core) ServeSnap(m wire.Message, budget int, out *urb.Step) int {
	sn, ok := c.Proc.(urb.Snapshotter)
	if !ok {
		return 0
	}
	if m.Ref == 0 {
		c.donor = snapxfer.NewDonor(store.EncodeSnapshotFile(sn.Snapshot()), budget)
	}
	if c.donor == nil || m.Ref != 0 && c.donor.Ref() != m.Ref {
		return 0 // unservable state (empty or oversized), or another donor's transfer
	}
	chunks := c.donor.Serve(m.Off, ServeWindow)
	out.Broadcasts = append(out.Broadcasts, chunks...)
	return len(chunks)
}

// Recovery reports what Recover merged: the size of the snapshot restored
// (0 if the store held none), the WAL records replayed on top of it, and
// the size of the compacted baseline written back.
type Recovery struct{ SnapshotBytes, WALRecords, CheckpointBytes int }

// Recover rebuilds a crashed process from st (DESIGN.md §9): the stored
// snapshot is restored into proc, the WAL appended since is replayed on
// top, Rejoin opens a new incarnation, and the merged state is
// checkpointed back so the next recovery replays only what happens
// after this one. proc must be freshly constructed with the crashed
// process's parameters and its tag Source at stream position zero.
func Recover(proc urb.Process, st store.Store) (Recovery, error) {
	d, ok := proc.(urb.Durable)
	if !ok {
		return Recovery{}, fmt.Errorf("host: %T does not implement urb.Durable", proc)
	}
	snap, wal, err := st.Load()
	if err != nil {
		return Recovery{}, fmt.Errorf("host: recover load: %w", err)
	}
	if snap != nil {
		if err := d.Restore(snap); err != nil {
			return Recovery{}, fmt.Errorf("host: recover snapshot: %w", err)
		}
	}
	for i, raw := range wal {
		rec, err := urb.DecodeWALRecord(raw)
		if err == nil {
			err = d.ApplyWAL(rec)
		}
		if err != nil {
			return Recovery{}, fmt.Errorf("host: recover wal record %d/%d: %w", i+1, len(wal), err)
		}
	}
	// New incarnation: outbound stream numbering (delta-ACK epochs) must
	// dominate anything the predecessor sent in the lost post-checkpoint
	// window.
	d.Rejoin()
	n, err := checkpoint(d, st)
	if err != nil {
		return Recovery{}, fmt.Errorf("host: recover checkpoint: %w", err)
	}
	return Recovery{SnapshotBytes: len(snap), WALRecords: len(wal), CheckpointBytes: n}, nil
}

// Vet is the joiner's verification gate on a snapshot container: the
// container framing and CRC, the full snapshot round-trip check, and the
// incarnation floor.
func Vet(container []byte, floor uint64) error {
	payload, err := store.ParseSnapshotFile(container)
	if err != nil {
		return err
	}
	info, err := urb.VerifySnapshot(payload)
	if err != nil {
		return err
	}
	if info.Incarnation < floor {
		return fmt.Errorf("%w: snapshot incarnation %d, floor %d", ErrStaleSnapshot, info.Incarnation, floor)
	}
	return nil
}

// Adopt turns a vetted container into joiner state (DESIGN.md §13): the
// donor state is restored into the fresh proc and converted with
// urb.Joiner.Adopt — the delivered set is kept, the acker identity is
// not. With a store, the adopted state is checkpointed as the joiner's
// baseline, so a crash right after the join recovers to post-adopt state
// and does not run the adoption again; the checkpoint size is returned.
func Adopt(proc urb.Process, st store.Store, container []byte) (int, error) {
	j, ok := proc.(urb.Joiner)
	if !ok {
		return 0, fmt.Errorf("host: %T does not implement urb.Joiner", proc)
	}
	payload, err := store.ParseSnapshotFile(container)
	if err != nil {
		return 0, fmt.Errorf("host: join: %w", err)
	}
	if err := j.Restore(payload); err != nil {
		return 0, fmt.Errorf("host: join restore: %w", err)
	}
	j.Adopt()
	if st == nil {
		return 0, nil
	}
	n, err := checkpoint(j, st)
	if err != nil {
		return 0, fmt.Errorf("host: join checkpoint: %w", err)
	}
	return n, nil
}

// Joiner is the joining side of the snapshot transfer: it assembles
// chunks, abandons a donor that has gone silent, vets every assembled
// container and remembers the refs of rejected ones so a bad donor is
// never reassembled.
type Joiner struct {
	asm      *snapxfer.Assembler
	rejected map[uint64]bool
	floor    uint64
	stall    func(attempt int) int64
	attempt  int
	patience int64
	lastGain int64
}

// NewJoiner starts a transfer at time now. Containers whose incarnation
// is below floor are rejected. stall is the driver's one policy: it is
// called once per donor, in order (attempt 0, 1, …), for how long that
// donor's transfer may gain no byte before it is abandoned.
func NewJoiner(now int64, floor uint64, stall func(attempt int) int64) *Joiner {
	return &Joiner{asm: snapxfer.NewAssembler(), rejected: make(map[uint64]bool), floor: floor,
		stall: stall, patience: stall(0), lastGain: now}
}

// Request returns the request to send now: a fresh solicitation before
// any chunk has arrived, a resume naming the lowest gap afterwards.
// Drivers call it on their retransmission cadence. A transfer that has
// gained nothing for the current patience is abandoned first — the donor
// went silent mid-transfer — so the request solicits afresh and any
// other peer may answer.
func (j *Joiner) Request(now int64) wire.Message {
	if j.asm.Ref() != 0 && now-j.lastGain >= j.patience {
		j.asm.Reset()
		j.lastGain = now
		j.attempt++
		j.patience = j.stall(j.attempt)
	}
	return j.asm.Request()
}

// Offer feeds one received message to the transfer. When it completes a
// container that passes Vet, the container is returned and the transfer
// is over. When it completes one that fails, the ref is remembered, the
// transfer is reset and resolicit is true: the driver sends Request
// again at once. Loud locally, silent on the wire. Anything but a chunk
// of the current, unrejected transfer is ignored.
func (j *Joiner) Offer(m wire.Message, now int64) (container []byte, resolicit bool) {
	if m.Kind != wire.KindSnapChunk || j.rejected[m.Ref] {
		return nil, false
	}
	if j.asm.Offer(m) {
		j.lastGain = now
	}
	if !j.asm.Done() {
		return nil, false
	}
	container = j.asm.Bytes()
	if err := Vet(container, j.floor); err != nil {
		j.rejected[j.asm.Ref()] = true
		j.asm.Reset()
		j.lastGain = now
		return nil, true
	}
	return container, false
}

// Progress reports the bytes received and announced by the transfer in hand.
func (j *Joiner) Progress() (received, total uint64) {
	return j.asm.Received(), j.asm.Total()
}
