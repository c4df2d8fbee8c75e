package urb

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// Golden state vectors (ROADMAP explorer hole (c), for the state codec):
// each case drives a three-process cluster through a fixed schedule and
// compares, per process, the final Snapshot bytes, the Fingerprint and the
// concatenated write-ahead records against testdata/golden/<case>.txt,
// plus one digest over every broadcast of the run. The files were recorded
// at f91647d, before the per-message records replaced the MsgID-keyed
// maps; a "same behaviour" change must leave them alone, and one that
// means to change state bytes re-records them with
//
//	go test ./internal/urb -run TestGoldenStateVectors -update-golden
var updateGolden = flag.Bool("update-golden", false, "re-record internal/urb/testdata/golden")

// goldenProc is the surface a schedule drives: the full durable contract.
type goldenProc interface {
	Joiner
	Fingerprinter
}

// goldenTuned turns every Config deviation on (benchmark/workloads.go's
// tuned); the zero Config is the paper's listing.
var goldenTuned = Config{
	EagerFirstSend:   true,
	CheckOnTick:      true,
	RetireBeforeSend: true,
	DeltaAcks:        true,
	CompactDelivered: true,
	PaceResyncs:      true,
	DeltaBeats:       true,
}

// goldenRun is one deterministic cluster: FIFO queues, every broadcast
// copied to every queue (the sender's too), hosts that log write-ahead
// exactly as node.Node and sim.Engine do.
type goldenRun struct {
	t      *testing.T
	mk     func(r *goldenRun, seed uint64) goldenProc
	procs  []goldenProc
	seeds  []uint64
	queues [][]wire.Message
	// durable[i] is every WAL record slot i ever logged, concatenated;
	// wal[i] the records since snap[i], its last checkpoint.
	durable [][]byte
	wal     [][][]byte
	snap    [][]byte
	// fast[i] counts slot i's fast deliveries.
	fast []int
	// sent digests every broadcast in emission order; kinds counts them.
	sent  [sha256.Size]byte
	kinds map[wire.Kind]int
	// lose, when set, drops the copy of m addressed to slot to.
	lose func(to int, m wire.Message) bool
	// now is the heartbeat hosts' clock; theta/star the oracle views.
	now         int64
	theta, star fd.View
}

func newGoldenRun(t *testing.T, n int, mk func(*goldenRun, uint64) goldenProc) *goldenRun {
	r := &goldenRun{
		t: t, mk: mk,
		queues:  make([][]wire.Message, n),
		durable: make([][]byte, n),
		wal:     make([][][]byte, n),
		snap:    make([][]byte, n),
		fast:    make([]int, n),
		kinds:   make(map[wire.Kind]int),
	}
	for i := 0; i < n; i++ {
		r.seeds = append(r.seeds, 1000+uint64(i)*7919)
		r.procs = append(r.procs, mk(r, r.seeds[i]))
	}
	return r
}

func (r *goldenRun) log(i int, ev DurableEvent) {
	if ev.Kind == WALDeliver && ev.Fast {
		r.fast[i]++
	}
	rec := ev.EncodeWAL()
	r.durable[i] = append(r.durable[i], rec...)
	r.wal[i] = append(r.wal[i], rec)
}

func (r *goldenRun) absorb(i int, s Step) {
	for _, ev := range s.Durable {
		r.log(i, ev)
	}
	for _, d := range s.Deliveries {
		r.log(i, DeliverEvent(d))
	}
	for _, m := range s.Broadcasts {
		r.sent = sha256.Sum256(m.Encode(r.sent[:]))
		r.kinds[m.Kind]++
		r.inject(m)
	}
}

// inject puts one copy of m on every queue, as a broadcast by some
// process would (used directly for traffic from outside the cluster).
func (r *goldenRun) inject(m wire.Message) {
	for j := range r.queues {
		if r.lose == nil || !r.lose(j, m) {
			r.queues[j] = append(r.queues[j], m)
		}
	}
}

func (r *goldenRun) broadcast(i int, body []byte) wire.MsgID {
	id, s := r.procs[i].Broadcast(body)
	r.absorb(i, s)
	return id
}

// round hands every process what was queued for it when the round began,
// then ticks everyone and advances the clock.
func (r *goldenRun) round() {
	for i := range r.procs {
		q := r.queues[i]
		r.queues[i] = nil
		for _, m := range q {
			r.absorb(i, r.procs[i].Receive(m))
		}
	}
	for i := range r.procs {
		r.absorb(i, r.procs[i].Tick())
	}
	r.now++
}

func (r *goldenRun) rounds(k int) {
	for ; k > 0; k-- {
		r.round()
	}
}

func (r *goldenRun) checkpoint(i int) {
	r.snap[i] = r.procs[i].Snapshot()
	r.wal[i] = nil
}

// recoverProc crashes slot i (queued frames are lost) and rebuilds it the
// way the hosts do: Restore, replay the WAL, Rejoin, checkpoint.
func (r *goldenRun) recoverProc(i int) {
	r.t.Helper()
	r.queues[i] = nil
	p := r.mk(r, r.seeds[i])
	if r.snap[i] != nil {
		if err := p.Restore(r.snap[i]); err != nil {
			r.t.Fatalf("slot %d restore: %v", i, err)
		}
	}
	for k, raw := range r.wal[i] {
		rec, err := DecodeWALRecord(raw)
		if err != nil {
			r.t.Fatalf("slot %d wal %d: %v", i, k, err)
		}
		if err := p.ApplyWAL(rec); err != nil {
			r.t.Fatalf("slot %d replay %d: %v", i, k, err)
		}
	}
	p.Rejoin()
	r.procs[i] = p
	r.checkpoint(i)
}

// joinFrom replaces slot i by a brand-new process bootstrapped from the
// donor's live snapshot: Restore, then Adopt instead of Rejoin.
func (r *goldenRun) joinFrom(i, donor int) {
	r.t.Helper()
	r.queues[i] = nil
	r.seeds[i] += 104729
	p := r.mk(r, r.seeds[i])
	if err := p.Restore(r.procs[donor].Snapshot()); err != nil {
		r.t.Fatalf("slot %d join restore: %v", i, err)
	}
	p.Adopt()
	r.procs[i] = p
	r.checkpoint(i)
}

// render is the golden file's content.
func (r *goldenRun) render() string {
	var b strings.Builder
	for i, p := range r.procs {
		fmt.Fprintf(&b, "snapshot.%d %x\n", i, p.Snapshot())
		fmt.Fprintf(&b, "fingerprint.%d %x\n", i, p.Fingerprint())
		fmt.Fprintf(&b, "durable.%d %x\n", i, r.durable[i])
	}
	fmt.Fprintf(&b, "broadcasts %s\n", hex.EncodeToString(r.sent[:]))
	return b.String()
}

func mkGoldenMajority(cfg Config) func(*goldenRun, uint64) goldenProc {
	return func(_ *goldenRun, seed uint64) goldenProc {
		return NewMajority(3, ident.NewSource(xrand.New(seed)), cfg)
	}
}

func mkGoldenQuiescent(cfg Config) func(*goldenRun, uint64) goldenProc {
	return func(r *goldenRun, seed uint64) goldenProc {
		det := &fd.Func{
			ThetaFn: func() fd.View { return r.theta },
			StarFn:  func() fd.View { return r.star },
		}
		return NewQuiescent(det, ident.NewSource(xrand.New(seed)), cfg)
	}
}

func mkGoldenHeartbeat(cfg Config) func(*goldenRun, uint64) goldenProc {
	return func(r *goldenRun, seed uint64) goldenProc {
		return NewHeartbeatHost(ident.NewSource(xrand.New(seed)), 6, 1, func() int64 { return r.now }, cfg)
	}
}

// goldenForeign is a message of a process outside the cluster.
func goldenForeign(hi uint64, body string) wire.MsgID {
	return wire.MsgID{Tag: ident.Tag{Hi: hi, Lo: 0xf0}, Body: body}
}

// goldenLifecycle is the schedule the three stack cases share: broadcasts
// from two processes, a MSG copy lost so that slot 2 delivers fast, a
// foreign message acknowledged by a foreign acker, duplicate MSG/ACK
// receptions every round (Task 1 resends, every reception re-ACKs), a
// checkpoint with a WAL tail, a crash-recovery of slot 0, a join into
// slot 2 from slot 1, and a second wave of broadcasts afterwards. views
// is called at fixed points so the Quiescent case can move its oracle.
func goldenLifecycle(r *goldenRun, views func(phase int)) {
	views(0)
	r.rounds(2) // detector warm-up: heartbeat hosts learn each other

	// Slot 2 misses every MSG copy of the first message until the filter
	// lifts: it assembles the delivery from ACKs alone.
	r.lose = func(to int, m wire.Message) bool {
		return to == 2 && m.Kind == wire.KindMsg && string(m.Body) == "alpha"
	}
	r.broadcast(0, []byte("alpha"))
	r.broadcast(1, []byte{0x00, 0xff, 0xfe, 'b', 0x00}) // binary body
	r.rounds(3)
	r.lose = nil

	// A foreign broadcaster and a foreign acker nobody ever hears again:
	// the frozen-ACK case the D4 purge exists for.
	ext := goldenForeign(7, "foreign")
	r.inject(wire.NewMsg(ext))
	r.inject(wire.NewLabeledAck(ext, ident.Tag{Hi: 70, Lo: 1}, []ident.Tag{{Hi: 0xdead, Lo: 1}}))
	r.inject(wire.NewAck(ext, ident.Tag{Hi: 70, Lo: 1})) // and again: a duplicate ACK
	r.rounds(2)

	r.checkpoint(0)
	r.broadcast(0, nil) // the empty body, logged after the checkpoint
	r.broadcast(2, []byte("gamma"))
	r.rounds(2)
	views(1)
	r.rounds(2)
	r.recoverProc(0) // Snapshot → Restore → ApplyWAL → Rejoin
	r.rounds(3)

	r.joinFrom(2, 1) // Restore → Adopt
	r.broadcast(2, []byte("delta"))
	r.rounds(3)
	views(2)
	r.rounds(6)
}

// goldenIdentity is the identity schedule: one tag under three bodies
// (one of them empty), a binary body, and the empty body again under
// another tag. Every copy arrives twice and the cluster acknowledges each
// among itself, so every (tag, body) pair must be tracked — and
// delivered — as its own message.
func goldenIdentity(r *goldenRun, views func(int)) {
	views(0)
	ids := []wire.MsgID{
		goldenForeign(9, "x"),
		goldenForeign(9, "y"), // same tag, different body
		goldenForeign(9, ""),  // same tag, empty body
		goldenForeign(10, string([]byte{0x00, 0x80, 0xff, 0x00})),
		goldenForeign(11, ""),
	}
	for _, id := range ids {
		r.inject(wire.NewMsg(id))
		r.inject(wire.NewMsg(id))
	}
	r.rounds(4)
	r.checkpoint(1)
	r.rounds(1)
	r.recoverProc(1)
	r.rounds(3)
}

func TestGoldenStateVectors(t *testing.T) {
	l1, l2, l3 := ident.Tag{Hi: 1, Lo: 0xb}, ident.Tag{Hi: 2, Lo: 0xb}, ident.Tag{Hi: 3, Lo: 0xb}
	// The oracle the Quiescent cases read. Phase 0: deliveries possible,
	// no AP* evidence yet. Phase 1: AΘ loses a label (delta ACKs with
	// removals, a full purge pass). Phase 2: AP* appears and messages
	// retire.
	oracle := func(r *goldenRun) func(int) {
		return func(phase int) {
			switch phase {
			case 0:
				r.theta = fd.Normalize(fd.View{{Label: l1, Number: 2}, {Label: l2, Number: 2}, {Label: l3, Number: 3}})
				r.star = nil
			case 1:
				r.theta = fd.Normalize(fd.View{{Label: l1, Number: 2}, {Label: l2, Number: 2}})
			case 2:
				r.star = fd.Normalize(fd.View{{Label: l1, Number: 3}, {Label: l2, Number: 3}})
			}
		}
	}
	noViews := func(*goldenRun) func(int) { return func(int) {} }

	tests := []struct {
		name     string
		mk       func(*goldenRun, uint64) goldenProc
		views    func(*goldenRun) func(int)
		schedule func(*goldenRun, func(int))
		// check asserts the schedule reached what it is there to cover.
		check func(t *testing.T, r *goldenRun)
	}{
		{
			name: "majority_paper", mk: mkGoldenMajority(Config{}), views: noViews,
			schedule: goldenLifecycle,
			check: func(t *testing.T, r *goldenRun) {
				for i, p := range r.procs {
					if st := p.Stats(); st.Delivered != 6 || st.MsgSet != 6 {
						t.Errorf("slot %d: delivered %d, |MSG| %d, want 6/6", i, st.Delivered, st.MsgSet)
					}
				}
				if r.fast[2] == 0 {
					t.Error("slot 2 never delivered fast")
				}
			},
		},
		{
			name: "quiescent_tuned", mk: mkGoldenQuiescent(goldenTuned), views: oracle,
			schedule: goldenLifecycle,
			check: func(t *testing.T, r *goldenRun) {
				for i, p := range r.procs {
					st := p.Stats()
					if st.Delivered != 6 || st.Retired == 0 || st.MsgSet != 0 {
						t.Errorf("slot %d: delivered %d, retired %d, |MSG| %d, want 6/>0/0", i, st.Delivered, st.Retired, st.MsgSet)
					}
				}
				if r.fast[2] == 0 || r.kinds[wire.KindAckDelta] == 0 || r.kinds[wire.KindAckReq] == 0 {
					t.Errorf("fast deliveries %v, kinds %v: want a fast delivery at slot 2, ACKΔ and ACKREQ traffic", r.fast, r.kinds)
				}
			},
		},
		{
			name: "heartbeat_tuned", mk: mkGoldenHeartbeat(goldenTuned), views: noViews,
			schedule: goldenLifecycle,
			check: func(t *testing.T, r *goldenRun) {
				for i, p := range r.procs {
					if st := p.Stats(); st.Delivered < 5 || st.Retired == 0 {
						t.Errorf("slot %d: delivered %d, retired %d, want >=5/>0", i, st.Delivered, st.Retired)
					}
				}
				// No fast delivery here: the heartbeat view asks for as many
				// claims as there are live hosts, slot 2's own included.
				if r.kinds[wire.KindAckReq] == 0 || r.kinds[wire.KindBeatDelta] == 0 || r.kinds[wire.KindBeatReq] == 0 {
					t.Errorf("kinds %v: want ACKREQ, BEATΔ and BEATREQ traffic", r.kinds)
				}
			},
		},
		{
			name: "identity_majority", mk: mkGoldenMajority(Config{}), views: noViews,
			schedule: goldenIdentity,
			check: func(t *testing.T, r *goldenRun) {
				for i, p := range r.procs {
					if st := p.Stats(); st.MsgSet != 5 || st.MyAcks != 5 || st.Delivered != 5 {
						t.Errorf("slot %d: |MSG| %d, |MY_ACK| %d, delivered %d, want 5 records", i, st.MsgSet, st.MyAcks, st.Delivered)
					}
				}
			},
		},
		{
			name: "identity_quiescent", mk: mkGoldenQuiescent(Config{}), views: oracle,
			schedule: goldenIdentity,
			check: func(t *testing.T, r *goldenRun) {
				for i, p := range r.procs {
					if st := p.Stats(); st.MsgSet != 5 || st.MyAcks != 5 || st.Delivered != 5 {
						t.Errorf("slot %d: |MSG| %d, |MY_ACK| %d, delivered %d, want 5 records", i, st.MsgSet, st.MyAcks, st.Delivered)
					}
				}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newGoldenRun(t, 3, tt.mk)
			tt.schedule(r, tt.views(r))
			tt.check(t, r)
			for _, p := range r.procs {
				checkProcRecords(t, p)
			}
			got := r.render()
			path := filepath.Join("testdata", "golden", tt.name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (record with -update-golden)", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := range gl {
					if i >= len(wl) || gl[i] != wl[i] {
						key, _, _ := strings.Cut(gl[i], " ")
						t.Errorf("%s: line %d (%s) differs from the recorded vector", path, i+1, key)
					}
				}
			}
		})
	}
}
