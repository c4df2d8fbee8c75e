//go:build linux

package main

import (
	"fmt"

	"anonurb/internal/wire"
)

// broadcastRec is one scheduled URB_broadcast as the generator issued it.
type broadcastRec struct {
	origin int
	// due is when the schedule wanted it sent and sent when the
	// generator called Node.Broadcast, both ns since the run epoch; call
	// is how long that call took. lag is how late the generator itself
	// ran: sent minus the later of due and the previous call's return,
	// since a call the program holds up is the program's time, not the
	// generator's.
	due, sent, call, lag int64
	id                   wire.MsgID
	// refused is set when Node.Broadcast returned an error.
	refused bool
}

// ledger is everything a run produced that the output check reads.
type ledger struct {
	broadcasts []broadcastRec
	// delivered[p] is process p's deliveries in order, across restarts.
	delivered [][]delivery
	// live[p] reports whether p is expected to be live at the end; a
	// process that crashed for good is not, one that restarted is.
	live []bool
}

// The kinds of output violation.
const (
	violDuplicate   = "duplicate_delivery"
	violRedelivered = "redelivered_after_restart"
	violUnbroadcast = "unbroadcast_id"
	violMissing     = "missing_delivery"
)

// violation is one way a run's outputs broke the URB contract.
type violation struct {
	kind string
	proc int
	// seq is the broadcast concerned, -1 for an ID nobody broadcast.
	seq int
}

func (v violation) String() string {
	return fmt.Sprintf("%s: process %d, broadcast %d", v.kind, v.proc, v.seq)
}

// verdict is the output check's result.
type verdict struct {
	violations []violation
	// attempted counts the broadcasts the run is answerable for: all of
	// them, less those of a crashed origin that no process delivered.
	// failed counts the attempted ones that were refused or not
	// delivered by every process expected to be live.
	attempted, failed int
	// done[seq] is when the last expected process delivered broadcast
	// seq and first[seq] when the first process did (ns since the run
	// epoch); -1 where that never happened.
	done, first []int64
}

// check verifies a run's outputs against the URB properties.
//
// Integrity, per process: every delivered ID was broadcast, and is
// delivered at most once, a restart included. Agreement: a broadcast of a
// process that never crashed is delivered by every process expected to
// be live at the end; a broadcast of a crashed process is delivered by
// all of those or by no process at all, and in the second case it is not
// counted as attempted.
func (l *ledger) check() verdict {
	v := verdict{
		done:  make([]int64, len(l.broadcasts)),
		first: make([]int64, len(l.broadcasts)),
	}
	seqOfID := make(map[wire.MsgID]int, len(l.broadcasts))
	for seq, b := range l.broadcasts {
		if !b.refused {
			seqOfID[b.id] = seq
		}
	}
	// at[p][seq] is when p delivered seq, -1 if it has not.
	at := make([][]int64, len(l.delivered))
	for p, log := range l.delivered {
		at[p] = make([]int64, len(l.broadcasts))
		inc := make([]uint8, len(l.broadcasts))
		for i := range at[p] {
			at[p][i] = -1
		}
		for _, d := range log {
			seq, ok := seqOfID[d.id]
			switch {
			case !ok:
				v.violations = append(v.violations, violation{violUnbroadcast, p, -1})
			case at[p][seq] >= 0 && inc[seq] != d.inc:
				v.violations = append(v.violations, violation{violRedelivered, p, seq})
			case at[p][seq] >= 0:
				v.violations = append(v.violations, violation{violDuplicate, p, seq})
			default:
				at[p][seq], inc[seq] = d.at, d.inc
			}
		}
	}
	for seq, b := range l.broadcasts {
		v.done[seq], v.first[seq] = -1, -1
		if b.refused {
			v.attempted++
			v.failed++
			continue
		}
		everywhere := true
		for p := range at {
			t := at[p][seq]
			if t >= 0 && (v.first[seq] < 0 || t < v.first[seq]) {
				v.first[seq] = t
			}
			if !l.live[p] {
				continue
			}
			if t < 0 {
				everywhere = false
			} else if t > v.done[seq] {
				v.done[seq] = t
			}
		}
		if !l.live[b.origin] && v.first[seq] < 0 {
			continue // in flight at its origin's crash and lost: legal
		}
		v.attempted++
		if everywhere {
			continue
		}
		v.failed++
		v.done[seq] = -1
		for p := range at {
			if l.live[p] && at[p][seq] < 0 {
				v.violations = append(v.violations, violation{violMissing, p, seq})
			}
		}
	}
	return v
}
