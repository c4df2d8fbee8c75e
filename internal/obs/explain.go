package obs

import (
	"fmt"
	"strings"

	"anonurb/internal/ident"
	"anonurb/internal/wire"
)

// EvidenceGap is one unit of missing delivery (or retirement) evidence:
// the guard wants Need claims on Label and has counted Have.
type EvidenceGap struct {
	Label ident.Tag
	Have  int
	Need  int
}

// Short reports whether the gap is still open.
func (g EvidenceGap) Short() bool { return g.Have < g.Need }

func (g EvidenceGap) String() string {
	return fmt.Sprintf("label %s: %d/%d claims", g.Label, g.Have, g.Need)
}

// Explanation is the stall explainer's report for one MsgID: exactly
// which evidence the delivery guard is still missing, produced by
// Majority.Explain and Quiescent.Explain (DESIGN.md §14). It reads the
// algorithm's live state, so it must be obtained on the hosting
// goroutine (node.Node.Explain serialises this).
type Explanation struct {
	ID   wire.MsgID
	Algo string
	// Known reports whether the process has heard of the message at all
	// (MSG received, ACK seen, or locally broadcast).
	Known bool
	// Delivered and Retired report the terminal states.
	Delivered bool
	Retired   bool
	// Ackers counts the distinct tag_acks seen for the message.
	Ackers int
	// Need is Algorithm 1's delivery threshold (majority); 0 for
	// Algorithm 2, whose thresholds are per-pair in Gaps.
	Need int
	// Gaps lists, per AΘ pair, the claim shortfall against the delivery
	// guard (Algorithm 2). Delivery needs at least ONE pair closed.
	Gaps []EvidenceGap
	// RetireGaps lists, per AP* pair, the shortfall against the
	// retirement guard (Algorithm 2, line 55): retirement needs EVERY
	// pair closed. Empty unless the message is delivered and still
	// retransmitted (and AP* names a pair).
	RetireGaps []EvidenceGap
	// StrayLabels are acker labels outside the AP* label set; any one
	// of them also blocks retirement.
	StrayLabels []ident.Tag
	// PendingResync counts delta-ACK streams for this message awaiting
	// an ACKREQ answer (rate-limited resyncs in flight) — evidence that
	// exists remotely but has not been attributed locally yet.
	PendingResync int
	// UnsyncedAckers counts ackers whose delta stream is not
	// epoch-synchronised (their claims are frozen until a snapshot
	// arrives).
	UnsyncedAckers int
}

// Stalled reports whether the message is known but not delivered.
func (e Explanation) Stalled() bool { return e.Known && !e.Delivered }

// String renders the report for humans: the missing evidence first.
func (e Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "msg %s (%s): ", e.ID, e.Algo)
	switch {
	case !e.Known:
		b.WriteString("unknown here (no MSG or ACK seen)")
		return b.String()
	case e.Retired:
		b.WriteString("delivered and retired")
		return b.String()
	case e.Delivered:
		b.WriteString("delivered")
	default:
		b.WriteString("NOT delivered")
	}
	if e.Need > 0 {
		fmt.Fprintf(&b, "\n  ackers: %d/%d distinct tag_acks", e.Ackers, e.Need)
		if e.Ackers < e.Need {
			fmt.Fprintf(&b, " — missing %d acker(s) for the majority guard", e.Need-e.Ackers)
		}
	} else if e.Ackers > 0 || !e.Delivered {
		fmt.Fprintf(&b, "\n  ackers claiming: %d", e.Ackers)
	}
	if len(e.Gaps) > 0 && !e.Delivered {
		b.WriteString("\n  delivery guard (need any AΘ pair satisfied):")
		for _, g := range e.Gaps {
			state := "SHORT"
			if !g.Short() {
				state = "ok"
			}
			fmt.Fprintf(&b, "\n    %s [%s]", g, state)
		}
	}
	if e.Delivered && !e.Retired && (len(e.RetireGaps) > 0 || len(e.StrayLabels) > 0) {
		b.WriteString("\n  retirement guard (need every AP* pair satisfied):")
		for _, g := range e.RetireGaps {
			state := "SHORT"
			if !g.Short() {
				state = "ok"
			}
			fmt.Fprintf(&b, "\n    %s [%s]", g, state)
		}
		for _, l := range e.StrayLabels {
			fmt.Fprintf(&b, "\n    acker label %s outside AP* view", l)
		}
	}
	if e.PendingResync > 0 {
		fmt.Fprintf(&b, "\n  %d ACKREQ resync(s) in flight", e.PendingResync)
	}
	if e.UnsyncedAckers > 0 {
		fmt.Fprintf(&b, "\n  %d acker stream(s) unsynced (claims frozen until snapshot)", e.UnsyncedAckers)
	}
	return b.String()
}

// Explainer is implemented by processes that can explain a message's
// delivery state (both paper algorithms and the heartbeat host).
type Explainer interface {
	Explain(id wire.MsgID) Explanation
}

// Traceable is implemented by processes that can host a Tracer; the
// node runtime uses it to install the tracer configured with
// node.WithTracer into the algorithm's emit sites.
type Traceable interface {
	SetTracer(t *Tracer)
}
