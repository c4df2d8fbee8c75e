package urb

// Tests for the label tables (DESIGN.md §10, "Label tables"): the
// allocation budget of steady-state receptions, and the acker-side
// comparisons that read the AΘ view in place.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// steadyQuiescent builds an Algorithm 2 process under a fixed five-label
// AΘ view that has received — and acknowledged — k messages, none of them
// deliverable (every pair needs more claimants than ever ACK here), and
// has ticked once since, so the next MSG copy of each is due a re-ACK.
func steadyQuiescent(t testing.TB, cfg Config, k int) (*Quiescent, []wire.Message) {
	t.Helper()
	view := make(fd.View, 5)
	for i := range view {
		view[i] = fd.Pair{Label: lbl(uint64(i) + 1), Number: 4}
	}
	p := NewQuiescent(fd.Static{Theta: fd.Normalize(view)}, ident.NewSource(xrand.New(6)), cfg)
	msgs := make([]wire.Message, k)
	for i := range msgs {
		id := wire.MsgID{Tag: ident.Tag{Hi: uint64(i) + 1, Lo: 7}, Body: fmt.Sprintf("payload-%08d", i)}
		msgs[i] = wire.NewMsg(id)
		if st := p.Receive(msgs[i]); len(st.Broadcasts) != 1 {
			t.Fatalf("setup: first MSG copy answered with %d broadcasts, want 1 ACK", len(st.Broadcasts))
		}
	}
	p.Tick()
	return p, msgs
}

// TestQuiescentSteadyReceiveAllocs pins what a reception costs while the
// AΘ view holds still: no label set is built to be compared and thrown
// away. A duplicate MSG allocates exactly its reply; one inside the
// re-ACK rate limit, and a re-ACK that changes nothing, allocate nothing.
func TestQuiescentSteadyReceiveAllocs(t *testing.T) {
	const k = 200
	labels := []ident.Tag{lbl(1), lbl(2), lbl(3), lbl(4), lbl(5)}

	// Each pass below makes k calls (one warm-up plus k-1 measured), one
	// per message.
	p, msgs := steadyQuiescent(t, Config{DeltaAcks: true}, k)
	i := 0
	next := func(ms []wire.Message) func() {
		return func() { recvSink = p.Receive(ms[i%k]); i++ }
	}
	if got := testing.AllocsPerRun(k-1, next(msgs)); got != 1 {
		t.Errorf("delta mode: duplicate MSG allocates %v, want 1 (Step.Broadcasts; the re-ACK shares its body)", got)
	}
	if len(recvSink.Broadcasts) != 1 || recvSink.Broadcasts[0].Kind != wire.KindAckDelta {
		t.Fatalf("delta mode: duplicate MSG answered %+v, want one unchanged re-ACK", recvSink.Broadcasts)
	}
	// The same tick again: every message has had its re-ACK.
	if got := testing.AllocsPerRun(k-1, next(msgs)); got != 0 {
		t.Errorf("delta mode: rate-limited duplicate MSG allocates %v, want 0", got)
	}
	// Receiver side, for a message still short of delivery: the acker's
	// snapshot repeated, and its unchanged re-ACK.
	snaps, reacks := make([]wire.Message, k), make([]wire.Message, k)
	for j, m := range msgs {
		snaps[j] = wire.NewAckSnapshot(m.ID(), lbl(100), 1, labels)
		reacks[j] = wire.NewAckDelta(m.ID(), lbl(100), 1, nil, nil)
		p.Receive(snaps[j])
	}
	if got := testing.AllocsPerRun(k-1, next(snaps)); got != 0 {
		t.Errorf("repeated ACK snapshot allocates %v, want 0", got)
	}
	if got := testing.AllocsPerRun(k-1, next(reacks)); got != 0 {
		t.Errorf("unchanged re-ACK allocates %v, want 0", got)
	}
	if st := p.Stats(); st.Delivered != 0 || st.AckEntries != k {
		t.Fatalf("delivered %d, acker entries %d; want 0 and %d", st.Delivered, st.AckEntries, k)
	}

	// The paper's full-set form: the reply also carries the label list.
	p, msgs = steadyQuiescent(t, Config{}, k)
	if got := testing.AllocsPerRun(k-1, next(msgs)); got != 2 {
		t.Errorf("full-set mode: duplicate MSG allocates %v, want 2 (Step.Broadcasts + the ACK's labels)", got)
	}
	acks := make([]wire.Message, k)
	for j, m := range msgs {
		acks[j] = wire.NewLabeledAck(m.ID(), lbl(100), labels)
		p.Receive(acks[j])
	}
	if got := testing.AllocsPerRun(k-1, next(acks)); got != 0 {
		t.Errorf("full-set mode: repeated ACK allocates %v, want 0", got)
	}
}

// TestQuiescentLedgerSharesSentSet: under one AΘ view every ledger entry
// points at one label set, through snapshot and restore too; a changed
// view moves entries to the new set one by one and leaves the others'
// set untouched.
func TestQuiescentLedgerSharesSentSet(t *testing.T) {
	view := fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(2), Number: 3}})
	p := NewQuiescent(fd.Func{ThetaFn: func() fd.View { return view }, StarFn: func() fd.View { return nil }},
		ident.NewSource(xrand.New(6)), Config{DeltaAcks: true})
	var ids []wire.MsgID
	for i := 0; i < 8; i++ {
		ids = append(ids, wire.MsgID{Tag: ident.Tag{Hi: uint64(i) + 1, Lo: 7}, Body: "m"})
		p.Receive(wire.NewMsg(ids[i]))
	}
	distinct := func(p *Quiescent) int {
		sets := make(map[*ident.Set]bool)
		for _, id := range ids {
			sets[p.recs.find(id).send.sent] = true
		}
		return len(sets)
	}
	if n := distinct(p); n != 1 {
		t.Fatalf("%d sent sets for %d entries under one view, want 1", n, len(ids))
	}
	q := NewQuiescent(fd.Static{Theta: view}, ident.NewSource(xrand.New(6)), Config{DeltaAcks: true})
	if err := q.Restore(p.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if n := distinct(q); n != 1 {
		t.Fatalf("restored: %d sent sets for %d entries, want 1", n, len(ids))
	}

	old := p.recs.find(ids[0]).send.sent
	view = fd.Normalize(fd.View{{Label: lbl(1), Number: 3}, {Label: lbl(3), Number: 3}})
	p.Tick()
	p.Receive(wire.NewMsg(ids[0]))
	if got := p.recs.find(ids[0]).send.sent; got == old || !got.Has(lbl(3)) || got.Has(lbl(2)) {
		t.Fatalf("refreshed entry holds %v", got.Slice())
	}
	if got := p.recs.find(ids[1]).send.sent; got != old || !got.Has(lbl(2)) || got.Has(lbl(3)) || got.Len() != 2 {
		t.Fatalf("an entry that sent nothing since now holds %v: a shared sent set was mutated", got.Slice())
	}
}

// TestQuiescentAckerReadsViewInPlace feeds the acker side views a user
// fd.Func may return — repeated labels, a reordering, a change, nothing
// at all — through receiveMsg and receiveAckResync. The replies and the
// ledger are what materialising a fresh set per call produced: repeated
// labels collapse, a reordering is not a change, a change is one delta.
func TestQuiescentAckerReadsViewInPlace(t *testing.T) {
	id := wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "m"}
	pair := func(l uint64) fd.Pair { return fd.Pair{Label: lbl(l), Number: 9} }
	tags := func(ls ...uint64) []ident.Tag {
		var out []ident.Tag
		for _, l := range ls {
			out = append(out, lbl(l))
		}
		return out
	}
	// set renders labels the way the fingerprint does.
	set := func(ls ...uint64) string {
		var b strings.Builder
		(&fpSink{text: &b}).tagSet(tags(ls...))
		return "{" + b.String() + "}"
	}
	const msg, req = "MSG", "ACKREQ"
	type step struct {
		view fd.View
		in   string
		// want builds the expected broadcasts from the process's tag_ack.
		want func(ack ident.Tag) []wire.Message
	}
	one := func(f func(ack ident.Tag) wire.Message) func(ident.Tag) []wire.Message {
		return func(ack ident.Tag) []wire.Message { return []wire.Message{f(ack)} }
	}
	snapshot := func(epoch uint64, ls ...uint64) func(ident.Tag) []wire.Message {
		return one(func(ack ident.Tag) wire.Message { return wire.NewAckSnapshot(id, ack, epoch, tags(ls...)) })
	}
	delta := func(epoch uint64, adds, dels []ident.Tag) func(ident.Tag) []wire.Message {
		return one(func(ack ident.Tag) wire.Message { return wire.NewAckDelta(id, ack, epoch, adds, dels) })
	}
	tests := []struct {
		name   string
		cfg    Config
		steps  []step
		ledger string // the fingerprint's ledger section, after the last step
	}{
		{
			name: "repeated labels collapse and stay unchanged",
			cfg:  Config{DeltaAcks: true},
			steps: []step{
				{fd.View{pair(1), pair(1), pair(2)}, msg, snapshot(1, 1, 2)},
				{fd.View{pair(1), pair(1), pair(2)}, msg, delta(1, nil, nil)},
				{fd.View{pair(2), pair(1), pair(2), pair(1)}, msg, delta(1, nil, nil)},
				{fd.View{pair(1), pair(1), pair(2)}, req, snapshot(1, 1, 2)},
			},
			ledger: "@1/4/4=" + set(1, 2),
		},
		{
			name: "a reordered view is not a change",
			cfg:  Config{DeltaAcks: true},
			steps: []step{
				{fd.View{pair(1), pair(2), pair(3)}, msg, snapshot(1, 1, 2, 3)},
				{fd.View{pair(3), pair(1), pair(2)}, msg, delta(1, nil, nil)},
				{fd.View{pair(3), pair(1), pair(2)}, req, snapshot(1, 1, 2, 3)},
			},
			ledger: "@1/3/3=" + set(1, 2, 3),
		},
		{
			name: "a changed view is one delta, then steady again",
			cfg:  Config{DeltaAcks: true},
			steps: []step{
				{fd.View{pair(1), pair(2)}, msg, snapshot(1, 1, 2)},
				{fd.View{pair(1), pair(3)}, msg, delta(2, tags(3), tags(2))},
				{fd.View{pair(1), pair(3)}, msg, delta(2, nil, nil)},
				{fd.View{pair(3), pair(4), pair(4)}, msg, delta(3, tags(4), tags(1))},
				{fd.View{pair(5)}, req, snapshot(4, 5)},
				{fd.View{pair(5)}, req, snapshot(4, 5)},
			},
			ledger: "@4/6/6=" + set(5),
		},
		{
			name: "an empty view",
			cfg:  Config{DeltaAcks: true},
			steps: []step{
				{nil, msg, snapshot(1)},
				{fd.View{}, msg, delta(1, nil, nil)},
				{fd.View{pair(1)}, msg, delta(2, tags(1), nil)},
				{nil, msg, delta(3, nil, tags(1))},
				{nil, req, snapshot(3)},
			},
			ledger: "@3/5/5=" + set(),
		},
		{
			name: "full-set mode: the list is the collapsed view; a resync opens the ledger",
			steps: []step{
				{fd.View{pair(2), pair(1), pair(2)}, msg, one(func(ack ident.Tag) wire.Message { return wire.NewLabeledAck(id, ack, tags(2, 1)) })},
				{nil, msg, one(func(ack ident.Tag) wire.Message { return wire.NewLabeledAck(id, ack, nil) })},
				{fd.View{pair(1), pair(1)}, req, snapshot(1, 1)},
				{fd.View{pair(1), pair(2)}, req, snapshot(2, 1, 2)},
			},
			ledger: "@2/4/4=" + set(1, 2),
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var view fd.View
			det := fd.Func{ThetaFn: func() fd.View { return view }, StarFn: func() fd.View { return nil }}
			p := NewQuiescent(det, ident.NewSource(xrand.New(3)), tt.cfg)
			for i, s := range tt.steps {
				view = s.view
				var got Step
				if s.in == msg {
					got = p.Receive(wire.NewMsg(id))
				} else {
					got = p.Receive(wire.NewAckResync(id, p.recs.find(id).ack))
				}
				if want := s.want(p.recs.find(id).ack); !reflect.DeepEqual(got.Broadcasts, want) {
					t.Fatalf("step %d (%s under %v):\n got %v\nwant %v", i, s.in, s.view, got.Broadcasts, want)
				}
				p.Tick() // the next step is not rate-limited
			}
			fp := p.Fingerprint()
			_, ledger, ok := strings.Cut(fp, "|ledger:")
			ledger, _, _ = strings.Cut(ledger, "|reqs:")
			if want := id.Tag.String() + "~" + id.Body + tt.ledger; !ok || ledger != want {
				t.Fatalf("ledger section %q, want %q\nfingerprint: %s", ledger, want, fp)
			}
			// The snapshot round trip reads the shared sets back.
			q := NewQuiescent(det, ident.NewSource(xrand.New(3)), tt.cfg)
			if err := q.Restore(p.Snapshot()); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if q.Fingerprint() != fp {
				t.Fatalf("restored fingerprint differs:\n got %s\nwant %s", q.Fingerprint(), fp)
			}
		})
	}
}
