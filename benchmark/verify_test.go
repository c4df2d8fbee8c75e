//go:build linux

package main

import (
	"testing"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// cleanLedger fabricates a run of three processes and four broadcasts in
// which every process delivers every broadcast once; process 2 restarts
// (incarnation 1) after its first two deliveries.
func cleanLedger() *ledger {
	l := &ledger{live: []bool{true, true, true}, delivered: make([][]delivery, 3)}
	for seq := 0; seq < 4; seq++ {
		id := wire.MsgID{Tag: ident.Tag{Hi: 7, Lo: uint64(seq + 1)}, Body: string(rune('a' + seq))}
		l.broadcasts = append(l.broadcasts, broadcastRec{origin: seq % 3, due: int64(seq) * 100, id: id})
		for p := range l.delivered {
			var inc uint8
			if p == 2 && seq >= 2 {
				inc = 1
			}
			l.delivered[p] = append(l.delivered[p], delivery{id: id, at: int64(seq)*100 + int64(p) + 1, inc: inc})
		}
	}
	return l
}

func kinds(v verdict) map[string]int {
	out := make(map[string]int)
	for _, viol := range v.violations {
		out[viol.kind]++
	}
	return out
}

func TestCheckAcceptsCleanRun(t *testing.T) {
	v := cleanLedger().check()
	if len(v.violations) != 0 || v.attempted != 4 || v.failed != 0 {
		t.Fatalf("clean run: violations %v, attempted %d, failed %d", v.violations, v.attempted, v.failed)
	}
	if v.done[1] != 103 || v.first[1] != 101 {
		t.Fatalf("broadcast 1: done %d first %d, want 103 and 101", v.done[1], v.first[1])
	}
}

// A checker that cannot fail proves nothing: each fabricated fault must
// be reported, each as its own kind.
func TestCheckReportsEachFault(t *testing.T) {
	l := cleanLedger()
	// Process 0 delivers broadcast 0 twice within one incarnation.
	l.delivered[0] = append(l.delivered[0], l.delivered[0][0])
	// Process 1 never delivers broadcast 3.
	l.delivered[1] = l.delivered[1][:3]
	// Process 2 delivers broadcast 1 again after its restart.
	again := l.delivered[2][1]
	again.inc = 1
	l.delivered[2] = append(l.delivered[2], again)
	// Process 0 delivers an ID nobody broadcast.
	l.delivered[0] = append(l.delivered[0], delivery{id: wire.MsgID{Tag: ident.Tag{Hi: 9, Lo: 9}, Body: "forged"}})

	v := l.check()
	got := kinds(v)
	for _, kind := range []string{violDuplicate, violMissing, violRedelivered, violUnbroadcast} {
		if got[kind] != 1 {
			t.Errorf("%s reported %d times, want once (all: %v)", kind, got[kind], v.violations)
		}
	}
	if len(v.violations) != 4 {
		t.Errorf("%d violations, want 4 distinct: %v", len(v.violations), v.violations)
	}
	if v.attempted != 4 || v.failed != 1 || v.done[3] != -1 {
		t.Errorf("attempted %d failed %d done[3] %d, want 4, 1 and -1", v.attempted, v.failed, v.done[3])
	}
}

// What a crashed process had in flight is delivered by all survivors or
// by none; only the second case leaves the attempt count.
func TestCheckCrashedOrigin(t *testing.T) {
	l := cleanLedger()
	l.live[0] = false // process 0 crashed; it broadcast 0 and 3
	// Broadcast 3 reached nobody: legal, and not attempted.
	for p := range l.delivered {
		l.delivered[p] = l.delivered[p][:3]
	}
	if v := l.check(); len(v.violations) != 0 || v.attempted != 3 || v.failed != 0 {
		t.Fatalf("lost in-flight broadcast: violations %v, attempted %d, failed %d", v.violations, v.attempted, v.failed)
	}
	// Broadcast 0 reached survivor 1 but not survivor 2: agreement broken.
	l.delivered[2] = l.delivered[2][1:]
	v := l.check()
	if got := kinds(v); got[violMissing] != 1 || len(v.violations) != 1 || v.failed != 1 {
		t.Fatalf("partial delivery: violations %v, failed %d", v.violations, v.failed)
	}
	// A refused broadcast is attempted and failed, and breaks nothing else.
	l = cleanLedger()
	l.broadcasts = append(l.broadcasts, broadcastRec{origin: 1, refused: true})
	if v := l.check(); len(v.violations) != 0 || v.attempted != 5 || v.failed != 1 {
		t.Fatalf("refused broadcast: violations %v, attempted %d, failed %d", v.violations, v.attempted, v.failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	// statistics.quantiles([3, 9], n=4) extrapolates beyond both values.
	if q1, q2, q3 = quartiles([]float64{9, 3}); q1 != 1.5 || q2 != 6 || q3 != 10.5 {
		t.Fatalf("quartiles of two = %v %v %v, want 1.5 6 10.5", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Fatalf("quartiles of one = %v %v %v, want 7 7 7", q1, q2, q3)
	}
}
