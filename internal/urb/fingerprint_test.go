package urb

import (
	"encoding/binary"
	"fmt"
	"testing"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/wire"
	"anonurb/internal/xrand"
)

// refFingerprint is the reference text of any of the three stacks.
func refFingerprint(p Process) string {
	switch p := p.(type) {
	case *Majority:
		return refMajorityFingerprint(p)
	case *Quiescent:
		return refQuiescentFingerprint(p)
	case *HeartbeatHost:
		return refHostFingerprint(p)
	}
	panic(fmt.Sprintf("no reference fingerprint for %T", p))
}

// matchReference holds p's fingerprint and snapshot digest to the
// reference emitters byte for byte; a host's wrapped algorithm, whose
// snapshot and trailer the host's embeds, is held to them as well.
func matchReference(t *testing.T, what string, p Process) {
	t.Helper()
	want := refFingerprint(p)
	if got := p.(Fingerprinter).Fingerprint(); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: fingerprint differs from the reference at byte %d of %d/%d:\n got …%q\nwant …%q",
			what, i, len(got), len(want), tail(got, i), tail(want, i))
	}
	snap := p.(Snapshotter).Snapshot()
	payload := snap[:len(snap)-8]
	if got, want := binary.BigEndian.Uint64(snap[len(snap)-8:]), textDigest(payload, want); got != want {
		t.Fatalf("%s: snapshot trailer %016x, reference digest %016x", what, got, want)
	}
	if h, ok := p.(*HeartbeatHost); ok {
		matchReference(t, what+" (inner)", h.inner)
	}
}

// tail is up to 40 bytes of s from byte i on.
func tail(s string, i int) string {
	return s[i:min(len(s), i+40)]
}

// Adversarial identities. twinHi and twinLo render like base — they agree
// in the low 32 bits of each half — but differ in the high bits, so the
// streaming emitters must order them by text, not by tag. The bodies
// contain every separator the fingerprint uses, prefixes of one another
// (a body that is a prefix of another under the same tag sorts by what
// follows it in the text), the empty body and non-UTF-8 bytes.
var (
	fpBase   = ident.Tag{Hi: 0x0000_0001_dead_beef, Lo: 0x0000_0002_0000_0007}
	fpTwinHi = ident.Tag{Hi: 0xabcd_0000_dead_beef, Lo: 0x0000_0002_0000_0007}
	fpTwinLo = ident.Tag{Hi: 0x0000_0001_dead_beef, Lo: 0x8000_0000_0000_0007}
	fpBodies = []string{
		"", "a", "a=", "a=b", "a={", "a=[", "a~", "a~b", "a,", "a,b", "a;", "a@", "a@1",
		"a/", "a/b", "a{", "a}", "a[", "a]", "a->{", "|acks:", "\xff", "\xff\xfe", "\x00", "a\x00",
	}
)

// twins returns the tag 100+k and a tag that renders alike.
func twins(k uint64) (ident.Tag, ident.Tag) {
	t := ident.Tag{Hi: 100 + k, Lo: 0xb}
	return t, ident.Tag{Hi: t.Hi | 0x5a5a_0000_0000_0000, Lo: t.Lo}
}

// adversarialIDs is every adversarial body under each of the three tags
// that render alike.
func adversarialIDs() []wire.MsgID {
	var ids []wire.MsgID
	for _, tag := range []ident.Tag{fpBase, fpTwinHi, fpTwinLo} {
		for _, body := range fpBodies {
			ids = append(ids, wire.MsgID{Tag: tag, Body: body})
		}
	}
	return ids
}

// TestFingerprintMatchesReference holds the streaming emitters to the
// reference emitters of fingerprint_ref_test.go: the same fingerprint
// text and the same snapshot digest, byte for byte, on all three stacks.
func TestFingerprintMatchesReference(t *testing.T) {
	t.Run("schedules", testFingerprintSchedules)
	t.Run("adversarial/majority", func(t *testing.T) {
		p := NewMajorityThreshold(5, 3, ident.NewSource(xrand.New(1)), Config{CheckOnTick: true})
		for i, id := range adversarialIDs() {
			p.Receive(wire.NewMsg(id))
			a, b := twins(uint64(i % 3))
			p.Receive(wire.NewAck(id, a))
			if i%2 == 0 {
				p.Receive(wire.NewAck(id, b)) // a second ACK that prints like the first
			}
			if i%5 == 0 {
				c, _ := twins(uint64(3 + i))
				p.Receive(wire.NewAck(id, c)) // threshold reached: delivered
			}
		}
		matchReference(t, "majority", p)
		p.Tick()
		matchReference(t, "majority after Tick", p)
	})
	for _, cfg := range []Config{{}, {DeltaAcks: true}, {DeltaAcks: true, CompactDelivered: true, RetireBeforeSend: true}} {
		t.Run(fmt.Sprintf("adversarial/quiescent/%#x", cfgFlags(cfg)), func(t *testing.T) {
			l1, l1twin := twins(1)
			l2, _ := twins(2)
			view := fd.Normalize(fd.View{{Label: l1, Number: 2}, {Label: l1twin, Number: 2}})
			p := NewQuiescent(fd.Static{Theta: view, Star: view.Clone()}, ident.NewSource(xrand.New(2)), cfg)
			driveAdversarialQuiescent(t, "quiescent", p, []ident.Tag{l1, l1twin, l2})
		})
	}
	t.Run("adversarial/heartbeat-host", func(t *testing.T) {
		var now int64
		h := NewHeartbeatHost(ident.NewSource(xrand.New(3)), 50, 2, func() int64 { return now },
			Config{DeltaAcks: true, DeltaBeats: true})
		for k := uint64(0); k < 4; k++ {
			a, b := twins(40 + k)
			now = int64(k) * 7
			h.Detector().Hear(a)
			now = -int64(k) // a negative clock reading renders with its sign
			h.Detector().Hear(b)
		}
		l1, l1twin := twins(40)
		driveAdversarialQuiescent(t, "heartbeat-host", h, []ident.Tag{l1, l1twin})
		matchReference(t, "heartbeat-host", h)
	})
}

// driveAdversarialQuiescent feeds p every adversarial identity with ACKs
// from ackers that print alike — snapshots, deltas past an epoch gap
// (pending resync requests) and unsynced full-set ACKs — and checks it
// against the reference before and after the Ticks that deliver, retire
// and purge.
func driveAdversarialQuiescent(t *testing.T, what string, p Process, labels []ident.Tag) {
	t.Helper()
	for i, id := range adversarialIDs() {
		a, b := twins(uint64(10 + i%3))
		switch i % 4 {
		case 0:
			p.Receive(wire.NewMsg(id))
			p.Receive(wire.NewAckSnapshot(id, a, 1, labels))
			p.Receive(wire.NewAckSnapshot(id, b, 1, labels[:1]))
		case 1:
			p.Receive(wire.NewAckDelta(id, a, 4, labels[1:], nil)) // gap: resync pending
			p.Receive(wire.NewAckDelta(id, b, 7, labels[:1], nil))
		case 2:
			p.Receive(wire.NewMsg(id))
			p.Receive(wire.NewLabeledAck(id, b, labels))
			p.Receive(wire.NewLabeledAck(id, a, labels[1:]))
		default:
			p.Receive(wire.NewAckSnapshot(id, a, 2, nil))
		}
	}
	matchReference(t, what, p)
	for k := 0; k < 3; k++ {
		p.Tick()
		matchReference(t, fmt.Sprintf("%s after Tick %d", what, k+1), p)
	}
}

// testFingerprintSchedules drives clusters of each stack through the
// schedule-fuzz scheduler, with adversarial bodies broadcast, and checks
// every live process against the reference between bursts of chaos.
func testFingerprintSchedules(t *testing.T) {
	cfgs := []Config{
		{},
		{CheckOnTick: true},
		{DeltaAcks: true},
		{DeltaAcks: true, CompactDelivered: true, RetireBeforeSend: true, EagerFirstSend: true},
	}
	for trial := 0; trial < 12; trial++ {
		stack := []string{"majority", "quiescent", "heartbeat-host"}[trial%3]
		t.Run(fmt.Sprintf("%s/trial%d", stack, trial), func(t *testing.T) {
			rng := xrand.New(uint64(trial)*6007 + 17)
			n := 3 + rng.Intn(3)
			cfg := cfgs[trial%len(cfgs)]
			tags := tagsFor(uint64(trial)+300, n)
			procs := make([]Process, n)
			var now int64
			clock := func() int64 { now++; return now }
			labels := make([]ident.Tag, n)
			view := fd.View{}
			for i := range labels {
				labels[i] = ident.Tag{Hi: uint64(trial)*100 + uint64(i) + 1, Lo: 3}
				view = append(view, fd.Pair{Label: labels[i], Number: n})
			}
			view = fd.Normalize(view)
			for i := range procs {
				switch stack {
				case "majority":
					procs[i] = NewMajority(n, tags[i], cfg)
				case "quiescent":
					procs[i] = NewQuiescent(fd.Static{Theta: view.Clone(), Star: view.Clone()}, tags[i], cfg)
				default:
					cfg.DeltaBeats = trial%2 == 0
					procs[i] = NewHeartbeatHost(tags[i], 40, 2, clock, cfg)
				}
			}
			c := newChaosNet(t, rng, procs, 100)
			for k := 0; k < 4; k++ {
				c.broadcast(rng.Intn(n), fpBodies[rng.Intn(len(fpBodies))])
			}
			check := func(phase string) {
				for p, proc := range c.procs {
					if !c.crashed[p] {
						matchReference(t, fmt.Sprintf("%s p%d", phase, p), proc)
					}
				}
			}
			for burst := 0; burst < 4; burst++ {
				c.chaos(60)
				check(fmt.Sprintf("burst %d", burst))
				c.broadcast(rng.Intn(n), fpBodies[rng.Intn(len(fpBodies))])
			}
			c.crash(n - 1)
			c.chaos(60)
			c.heal(3)
			check("healed")
		})
	}
}
