package host

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/snapxfer"
	"anonurb/internal/store"
	"anonurb/internal/urb"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

var errBoom = errors.New("boom")

// recStore is a recording fake store: a store.Mem that logs every
// operation in order and can be told to fail.
type recStore struct {
	*store.Mem
	ops []string
	// failWAL fails the k-th AppendWAL from now (1-based; 0 = never);
	// failSnap fails every SaveSnapshot.
	failWAL  int
	failSnap bool
}

func newRecStore() *recStore { return &recStore{Mem: store.NewMem()} }

func (s *recStore) AppendWAL(rec []byte) error {
	if s.failWAL > 0 {
		if s.failWAL--; s.failWAL == 0 {
			return errBoom
		}
	}
	ev, err := urb.DecodeWALRecord(rec)
	if err != nil {
		return err
	}
	s.ops = append(s.ops, "wal:"+ev.Kind.String())
	return s.Mem.AppendWAL(rec)
}

func (s *recStore) SaveSnapshot(snap []byte) error {
	if s.failSnap {
		return errBoom
	}
	s.ops = append(s.ops, "snap")
	return s.Mem.SaveSnapshot(snap)
}

func (s *recStore) Load() ([]byte, [][]byte, error) {
	s.ops = append(s.ops, "load")
	return s.Mem.Load()
}

// solo builds a one-process Algorithm 1 instance: its own ACK is a
// majority, so every broadcast it hears back delivers.
func solo(seed uint64) *urb.Majority {
	return urb.NewMajority(1, ident.NewSource(xrand.New(seed)), urb.Config{})
}

// pump URB-broadcasts each body on c's process, ticks it once (Task 1
// does the sending) and loops every wire message back to it, committing
// each Step before acting on it the way a driver does. It returns the
// message ids, all delivered.
func pump(t *testing.T, c *Core, bodies ...string) []wire.MsgID {
	t.Helper()
	var ids []wire.MsgID
	for _, body := range bodies {
		id, s := c.Proc.Broadcast([]byte(body))
		ids = append(ids, id)
		queue := []urb.Step{s, c.Proc.Tick()}
		for len(queue) > 0 {
			s, queue = queue[0], queue[1:]
			if _, _, err := c.Commit(s); err != nil {
				t.Fatalf("commit: %v", err)
			}
			for _, m := range s.Broadcasts {
				queue = append(queue, c.Proc.Receive(m))
			}
		}
		if !c.Proc.(*urb.Majority).HasDelivered(id) {
			t.Fatalf("%q not delivered by the solo process", body)
		}
	}
	return ids
}

func TestCommit(t *testing.T) {
	tag := func(x uint64) ident.Tag { return ident.Tag{Hi: x, Lo: x} }
	a := wire.MsgID{Tag: tag(1), Body: "a"}
	b := wire.MsgID{Tag: tag(2), Body: "b"}
	step := urb.Step{
		Broadcasts: []wire.Message{wire.NewMsg(a)},
		Durable: []urb.DurableEvent{
			{Kind: urb.WALBroadcast, ID: a, Draws: 1},
			{Kind: urb.WALPin, ID: b, Ack: tag(3), Draws: 2},
		},
		Deliveries: []urb.Delivery{{ID: a}, {ID: b, Fast: true}},
	}
	tests := []struct {
		name        string
		failWAL     int
		wantOps     []string
		wantRecords int
		wantErr     bool
	}{
		{
			// Everything of the Step is in the store when Commit returns,
			// so before the caller sends or exposes any of it: pins and
			// broadcasts first, then the deliveries, in Step order.
			name:        "durable events then deliveries",
			wantOps:     []string{"wal:BROADCAST", "wal:PIN", "wal:DELIVER", "wal:DELIVER"},
			wantRecords: 4,
		},
		{
			name:        "stops at the first store error",
			failWAL:     2,
			wantOps:     []string{"wal:BROADCAST"},
			wantRecords: 1,
			wantErr:     true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := newRecStore()
			st.failWAL = tt.failWAL
			c := Core{Proc: solo(1), Store: st}
			records, size, err := c.Commit(step)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, want error %v", err, tt.wantErr)
			}
			if !reflect.DeepEqual(st.ops, tt.wantOps) {
				t.Fatalf("store saw %v, want %v", st.ops, tt.wantOps)
			}
			stats := st.Stats()
			if records != tt.wantRecords || uint64(records) != stats.WALRecords || uint64(size) != stats.WALBytes {
				t.Fatalf("reported %d records / %d bytes, want %d; store holds %d / %d",
					records, size, tt.wantRecords, stats.WALRecords, stats.WALBytes)
			}
		})
	}

	t.Run("no store", func(t *testing.T) {
		c := Core{Proc: solo(1)}
		if records, size, err := c.Commit(step); records != 0 || size != 0 || err != nil {
			t.Fatalf("store-less commit = %d, %d, %v", records, size, err)
		}
		if n := testing.AllocsPerRun(100, func() { c.Commit(step) }); n != 0 {
			t.Fatalf("store-less commit allocates %v times", n)
		}
	})
}

// garble is a store.SnapshotMutator flipping one mid-snapshot byte.
type garble struct{}

func (garble) MutateSnapshot(snap []byte) []byte {
	snap[len(snap)/2] ^= 0xFF
	return snap
}

func TestRecover(t *testing.T) {
	tests := []struct {
		name string
		// crash fills the store the way the predecessor left it and
		// returns the ids a recovered process must hold as delivered and
		// those it must know but not have delivered.
		crash         func(t *testing.T, c *Core, st *recStore) (delivered, pending []wire.MsgID)
		wantSnapshot  bool
		wantWAL       int
		wantErr       bool
		wantNoRewrite bool
	}{
		{
			name: "WAL only",
			crash: func(t *testing.T, c *Core, _ *recStore) ([]wire.MsgID, []wire.MsgID) {
				return pump(t, c, "one", "two"), nil
			},
			wantWAL: 6, // BROADCAST, PIN, DELIVER per message
		},
		{
			name: "snapshot only",
			crash: func(t *testing.T, c *Core, _ *recStore) ([]wire.MsgID, []wire.MsgID) {
				ids := pump(t, c, "one", "two")
				if _, err := checkpoint(c.Proc, c.Store); err != nil {
					t.Fatal(err)
				}
				return ids, nil
			},
			wantSnapshot: true,
		},
		{
			// The crash hit mid-append: the second message's DELIVER
			// record is lost, its BROADCAST and PIN are not. The
			// recovered process knows the message, keeps its tag_ack and
			// has not delivered it.
			name: "snapshot + torn tail",
			crash: func(t *testing.T, c *Core, st *recStore) ([]wire.MsgID, []wire.MsgID) {
				first := pump(t, c, "one")
				if _, err := checkpoint(c.Proc, c.Store); err != nil {
					t.Fatal(err)
				}
				second := pump(t, c, "two")
				st.TearTail()
				return first, second
			},
			wantSnapshot: true,
			wantWAL:      2,
		},
		{
			name: "corrupt snapshot",
			crash: func(t *testing.T, c *Core, st *recStore) ([]wire.MsgID, []wire.MsgID) {
				pump(t, c, "one")
				if _, err := checkpoint(c.Proc, c.Store); err != nil {
					t.Fatal(err)
				}
				st.SetSnapshotMutator(garble{})
				return nil, nil
			},
			wantErr:       true,
			wantNoRewrite: true,
		},
		{
			name: "baseline checkpoint fails",
			crash: func(t *testing.T, c *Core, st *recStore) ([]wire.MsgID, []wire.MsgID) {
				pump(t, c, "one")
				st.failSnap = true
				return nil, nil
			},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st := newRecStore()
			delivered, pending := tt.crash(t, &Core{Proc: solo(5), Store: st}, st)
			st.ops = nil

			p := solo(5)
			rec, err := Recover(p, st)
			if tt.wantErr {
				if err == nil {
					t.Fatal("recovered from a store it must refuse")
				}
				if tt.wantNoRewrite && !reflect.DeepEqual(st.ops, []string{"load"}) {
					t.Fatalf("a refused recovery wrote to the store: %v", st.ops)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (rec.SnapshotBytes > 0) != tt.wantSnapshot || rec.WALRecords != tt.wantWAL {
				t.Fatalf("recovery = %+v, want snapshot %v and %d WAL records", rec, tt.wantSnapshot, tt.wantWAL)
			}
			// Load, then exactly one compacting checkpoint.
			if !reflect.DeepEqual(st.ops, []string{"load", "snap"}) {
				t.Fatalf("store saw %v, want load then snap", st.ops)
			}
			if stats := st.Stats(); stats.WALRecords != 0 || stats.SnapshotBytes != uint64(rec.CheckpointBytes) {
				t.Fatalf("store not compacted to the recovered baseline: %+v vs %+v", stats, rec)
			}
			for _, id := range delivered {
				if !p.HasDelivered(id) {
					t.Fatalf("recovered state lost the delivery of %v", id)
				}
			}
			for _, id := range pending {
				if p.HasDelivered(id) {
					t.Fatalf("recovered state delivered %v, whose record tore", id)
				}
			}
			if got, want := p.Stats().MsgSet, len(delivered)+len(pending); got != want {
				t.Fatalf("recovered MSG set holds %d messages, want %d", got, want)
			}
			// The compacted baseline alone recovers the same state.
			again := solo(5)
			rec2, err := Recover(again, st)
			if err != nil || rec2.WALRecords != 0 || again.Fingerprint() != p.Fingerprint() {
				t.Fatalf("second recovery = %+v, %v; same state %v", rec2, err, again.Fingerprint() == p.Fingerprint())
			}
		})
	}

	t.Run("not durable", func(t *testing.T) {
		if _, err := Recover(plain{}, newRecStore()); err == nil {
			t.Fatal("recovered a process that is not urb.Durable")
		}
	})
}

// plain is a process with no durable surface at all.
type plain struct{}

func (plain) Broadcast([]byte) (wire.MsgID, urb.Step) { return wire.MsgID{}, urb.Step{} }
func (plain) Receive(wire.Message) urb.Step           { return urb.Step{} }
func (plain) Tick() urb.Step                          { return urb.Step{} }
func (plain) Stats() urb.Stats                        { return urb.Stats{} }

// view is a static detector for standalone Algorithm 2 processes.
type view fd.View

func (v view) ATheta() fd.View { return fd.View(v) }
func (v view) APStar() fd.View { return fd.View(v) }

func label(x uint64) ident.Tag { return ident.Tag{Hi: x, Lo: x} }

func quiescent(seed uint64) *urb.Quiescent {
	det := view{fd.Pair{Label: label(1), Number: 2}}
	return urb.NewQuiescent(det, ident.NewSource(xrand.New(seed)), urb.Config{})
}

// donor builds an Algorithm 2 process that has delivered msgs messages
// — enough state that its container spans several chunks at testBudget —
// and returns it with the ids.
func donor(t *testing.T, seed uint64, msgs int) (*urb.Quiescent, []wire.MsgID) {
	t.Helper()
	p := quiescent(seed)
	ids := make([]wire.MsgID, msgs)
	for i := range ids {
		ids[i] = wire.MsgID{Tag: label(1000*seed + uint64(i)), Body: "history"}
		p.Receive(wire.NewMsg(ids[i]))
		p.Receive(wire.NewAckSnapshot(ids[i], label(2000*seed+uint64(i)), 1, []ident.Tag{label(1)}))
		s := p.Receive(wire.NewAckSnapshot(ids[i], label(3000*seed+uint64(i)), 1, []ident.Tag{label(1)}))
		if len(s.Deliveries) != 1 {
			t.Fatalf("donor %d did not deliver message %d", seed, i)
		}
	}
	return p, ids
}

func containerOf(p *urb.Quiescent) []byte { return store.EncodeSnapshotFile(p.Snapshot()) }

const testBudget = 128

// peer plays one donor on the far side of the wire.
type peer struct {
	*snapxfer.Donor
	container []byte
}

func newPeer(t *testing.T, container []byte) peer {
	t.Helper()
	d := snapxfer.NewDonor(container, testBudget)
	if d.Size() <= 2*uint64(snapxfer.ChunkPayload(testBudget)) {
		t.Fatalf("container of %d bytes is too small for a multi-chunk transfer", d.Size())
	}
	return peer{Donor: d, container: container}
}

func TestJoiner(t *testing.T) {
	const patience = 5
	good, _ := donor(t, 4, 6)
	other, _ := donor(t, 5, 4)
	rejoined, _ := donor(t, 7, 4)
	rejoined.Rejoin() // incarnation 1
	// Well-framed, CRC-clean, and not a snapshot.
	junk := store.EncodeSnapshotFile(bytes.Repeat([]byte("not a snapshot "), 40))

	tests := []struct {
		name  string
		floor uint64
		// network returns the chunks that reach the joiner in answer to
		// the request it sent at time now.
		network func(t *testing.T) func(now int64, req wire.Message) []wire.Message
		want    []byte
		// wantDonors is how many donors the stall policy was consulted
		// for: one, plus one per abandoned donor.
		wantDonors int
	}{
		{
			// Every second chunk is lost; resume requests naming the
			// lowest gap complete the transfer from the same donor.
			name: "chunk loss",
			network: func(t *testing.T) func(int64, wire.Message) []wire.Message {
				d := newPeer(t, containerOf(good))
				sent := 0
				return func(_ int64, req wire.Message) []wire.Message {
					if req.Ref != 0 && req.Ref != d.Ref() {
						return nil
					}
					var through []wire.Message
					for _, c := range d.Serve(req.Off, 2) {
						if sent++; sent%2 == 1 {
							through = append(through, c)
						}
					}
					return through
				}
			},
			want:       containerOf(good),
			wantDonors: 1,
		},
		{
			// The first donor answers with one chunk and crashes. After
			// `patience` without a byte the joiner solicits afresh and
			// finishes with whoever answers.
			name: "donor switch after stall",
			network: func(t *testing.T) func(int64, wire.Message) []wire.Message {
				dead, live := newPeer(t, containerOf(other)), newPeer(t, containerOf(good))
				solicits, lastChunk := 0, int64(0)
				return func(now int64, req wire.Message) []wire.Message {
					switch {
					case req.Ref == 0:
						if solicits++; solicits == 1 {
							lastChunk = now
							return dead.Serve(0, 1)
						}
						if now-lastChunk < patience {
							t.Errorf("donor abandoned after %d units, patience is %d", now-lastChunk, patience)
						}
						return live.Serve(0, 2)
					case req.Ref == live.Ref():
						return live.Serve(req.Off, 2)
					}
					return nil
				}
			},
			want:       containerOf(good),
			wantDonors: 2,
		},
		{
			// A donor whose container fails verification is rejected by
			// ref: it keeps answering every solicitation first, and is
			// never reassembled.
			name: "container rejected and its ref never reassembled",
			network: func(t *testing.T) func(int64, wire.Message) []wire.Message {
				return insistentBadDonor(newPeer(t, junk), newPeer(t, containerOf(good)))
			},
			want:       containerOf(good),
			wantDonors: 1,
		},
		{
			name:  "snapshot below the floor",
			floor: 1,
			network: func(t *testing.T) func(int64, wire.Message) []wire.Message {
				return insistentBadDonor(newPeer(t, containerOf(good)), newPeer(t, containerOf(rejoined)))
			},
			want:       containerOf(rejoined),
			wantDonors: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			network := tt.network(t)
			donors := 0
			j := NewJoiner(0, tt.floor, func(attempt int) int64 {
				if attempt != donors {
					t.Errorf("stall policy asked about donor %d, want %d", attempt, donors)
				}
				donors++
				return patience
			})
			var got []byte
			for now := int64(0); got == nil; now++ {
				if now > 1000 {
					t.Fatal("transfer did not complete")
				}
				inbox := network(now, j.Request(now))
				for len(inbox) > 0 && got == nil {
					var resolicit bool
					got, resolicit = j.Offer(inbox[0], now)
					inbox = inbox[1:]
					if resolicit {
						if r, total := j.Progress(); r != 0 || total != 0 {
							t.Fatalf("rejected transfer left %d/%d bytes behind", r, total)
						}
						inbox = append(inbox, network(now, j.Request(now))...)
					}
				}
			}
			if !bytes.Equal(got, tt.want) {
				t.Fatalf("joined with a %d-byte container, want the %d-byte one", len(got), len(tt.want))
			}
			if donors != tt.wantDonors {
				t.Fatalf("stall policy consulted for %d donors, want %d", donors, tt.wantDonors)
			}
		})
	}
}

// insistentBadDonor is a network where bad answers every solicitation
// ahead of good and serves every resume of its own ref; once the joiner
// has rejected bad's container it can only finish through good.
func insistentBadDonor(bad, good peer) func(int64, wire.Message) []wire.Message {
	return func(_ int64, req wire.Message) []wire.Message {
		switch req.Ref {
		case 0:
			return append(bad.Serve(0, 2), good.Serve(0, 2)...)
		case bad.Ref():
			return bad.Serve(req.Off, 2)
		case good.Ref():
			return good.Serve(req.Off, 2)
		}
		return nil
	}
}

func TestAdopt(t *testing.T) {
	from, ids := donor(t, 3, 3)
	container := containerOf(from)
	tests := []struct {
		name      string
		proc      urb.Process
		store     *recStore
		failSnap  bool
		container []byte
		wantErr   bool
		wantOps   []string
	}{
		{name: "no store", proc: quiescent(50), container: container},
		{name: "baseline checkpoint", proc: quiescent(50), store: newRecStore(), container: container,
			wantOps: []string{"snap"}},
		{name: "baseline checkpoint fails", proc: quiescent(50), store: newRecStore(), failSnap: true,
			container: container, wantErr: true},
		{name: "torn container", proc: quiescent(50), store: newRecStore(),
			container: container[:len(container)-1], wantErr: true},
		{name: "not a joiner", proc: plain{}, container: container, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var st store.Store
			if tt.store != nil {
				tt.store.failSnap = tt.failSnap
				st = tt.store
			}
			size, err := Adopt(tt.proc, st, tt.container)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v, want error %v", err, tt.wantErr)
			}
			if tt.store != nil && !reflect.DeepEqual(tt.store.ops, tt.wantOps) {
				t.Fatalf("store saw %v, want %v", tt.store.ops, tt.wantOps)
			}
			if err != nil {
				return
			}
			p := tt.proc.(*urb.Quiescent)
			for _, id := range ids {
				if !p.HasDelivered(id) {
					t.Fatalf("adopted state is missing %v", id)
				}
			}
			if tt.store != nil {
				if size == 0 || uint64(size) != tt.store.Stats().SnapshotBytes {
					t.Fatalf("baseline of %d bytes reported, store holds %d", size, tt.store.Stats().SnapshotBytes)
				}
				// A crash right after the join recovers the adopted state.
				back := quiescent(50)
				if _, err := Recover(back, tt.store); err != nil || !back.HasDelivered(ids[0]) {
					t.Fatalf("recovery from the join baseline: %v", err)
				}
			}
		})
	}
}

func TestServeSnap(t *testing.T) {
	p, _ := donor(t, 9, 12)
	c := Core{Proc: p}
	var out urb.Step

	if n := c.ServeSnap(wire.NewSnapReq(77, 0), testBudget, &out); n != 0 {
		t.Fatalf("served %d chunks of a transfer it never opened", n)
	}
	n := c.ServeSnap(wire.NewSnapReq(0, 0), testBudget, &out)
	if n != ServeWindow || len(out.Broadcasts) != n {
		t.Fatalf("a solicitation got %d chunks (%d in the step), want the window of %d", n, len(out.Broadcasts), ServeWindow)
	}
	ref, next := out.Broadcasts[0].Ref, out.Broadcasts[n-1].Off+uint64(len(out.Broadcasts[n-1].Body))
	for _, m := range out.Broadcasts {
		if m.Kind != wire.KindSnapChunk || m.Ref != ref || m.EncodedSize() > testBudget {
			t.Fatalf("bad chunk %v (%d bytes encoded)", m.Kind, m.EncodedSize())
		}
	}
	// A resume is served from the cached container even though the
	// process has moved on since.
	p.Receive(wire.NewMsg(wire.MsgID{Tag: label(999), Body: "later"}))
	out = urb.Step{}
	if c.ServeSnap(wire.NewSnapReq(ref, next), testBudget, &out) == 0 || out.Broadcasts[0].Ref != ref || out.Broadcasts[0].Off != next {
		t.Fatal("resume request not served from the cached transfer")
	}
	if n := (&Core{Proc: plain{}}).ServeSnap(wire.NewSnapReq(0, 0), testBudget, &out); n != 0 {
		t.Fatalf("a process that cannot snapshot served %d chunks", n)
	}
}
