package urb

import (
	"cmp"
	"slices"

	"anonurb/internal/fd"
	"anonurb/internal/ident"
	"anonurb/internal/obs"
	"anonurb/internal/wire"
)

// Quiescent is Algorithm 2: quiescent uniform reliable broadcast in
// AAS_F[n,t | AΘ, AP*] — any number of processes may crash, and
// eventually no process sends any message.
//
// Mechanics (Section VI): MSG dissemination and per-message pinned
// tag_acks work as in Algorithm 1, but each ACK additionally carries the
// label set the acker currently reads from its AΘ module:
//
//	(ACK, m, tag, tag_ack, labels)
//
// For every message the receiver maintains, per acker (tag_ack), the
// label set from that acker's latest ACK, and derives
//
//	claims[label] = number of distinct ackers whose latest ACK claims label.
//
// Delivery guard (paper line 46): m is URB-deliverable once some
// (label, number) pair in the local AΘ view satisfies
// claims[label] >= number. Safety: the ackers claiming label form a
// subset of S(label), and AΘ-accuracy guarantees any number-sized subset
// of S(label) contains a correct process — so a correct process has
// received m and will retransmit it forever (until retirement).
//
// Retirement guard (paper line 55): a delivered message is deleted from
// the retransmission set MSG_i once, for every (label, number) pair in
// the local AP* view, claims[label] >= number, and no acker still claims
// a label outside the AP* view. Post-GST the AP* view is exactly the
// correct processes' labels with number = |Correct|, and — because the
// failure detector only reveals a label to its owner and to correct
// processes — the claimants of a correct label are correct processes, so
// the guard certifies that every correct process has ACKed (hence
// received) m. Every correct process therefore delivers m on its own
// evidence, and retransmission can stop: the algorithm is quiescent.
//
// With Config.DeltaAcks the labels travel incrementally (deviation D5,
// DESIGN.md §8): the acker's set is sent once and then only its
// epoch-numbered differences, with gaps repaired by a resync
// request/response. The claim bookkeeping below is driven to the exact
// same states either way; reception of every wire form is always on.
//
// Deviations D1-D5 from the garbled published listing are documented in
// DESIGN.md §2/§8 and at the relevant code below.
type Quiescent struct {
	common
	det fd.Detector
	// ackOrder lists the records holding ACK bookkeeping (msgRec.st) in
	// first-seen order, for determinism. After every Tick and Restore it
	// holds only live claim state: records that are undelivered or still
	// in MSG_i (DESIGN.md §2, D3).
	ackOrder []*msgRec
	retired  int
	// freeable reports that a settled record has held claim state since
	// the last freeClaims pass, which the end of the next Tick then runs.
	freeable bool
	// ticks counts Task-1 passes; the delta-ACK path's per-tick rate
	// limiters compare against it.
	ticks uint64
	// epochFloor is the delta-stream incarnation base (DESIGN.md §9):
	// every ledger entry opened after a crash-recovery Rejoin starts at
	// epochFloor+1, which dominates every epoch the process's previous
	// incarnation can have sent. Without it, a recovered acker would
	// re-open streams at epoch 1 and receivers still synced at the
	// (lost) higher pre-crash epochs would discard its ACKs as stale —
	// forever. 0 for a process that never recovered.
	epochFloor uint64
	// sets interns the shared label sets of compacted acker views
	// (Config.CompactDelivered, DESIGN.md §10).
	sets setIntern
	// resync is the D9 per-tick ACKREQ budget (Config.PaceResyncs);
	// pacing state, excluded from snapshots and fingerprints.
	resync resyncBudget
	// lastTheta/lastStar are private copies of the detector views the
	// last Tick evaluated every message against; viewsKnown is false
	// until a Tick has recorded them and after every restore path, which
	// forces the next Tick into a full pass. Together with the dirty
	// queue they form the retirement index (DESIGN.md §10): a Tick under
	// unchanged views purges, guard-checks and clears only the queued
	// states — for every other message all three are provably no-ops.
	// Deliberately excluded from snapshots and fingerprints: like the
	// rate limiters this is derived pacing state, and the exclusion is
	// sound because skipped work is always a no-op (fingerprint-equal
	// states behave identically whether they skip or re-evaluate).
	lastTheta, lastStar fd.View
	viewsKnown          bool
	// dirtyQ holds every ackState whose dirty bit is set, exactly once,
	// in the order the bits flipped. It is a pointer because the states
	// carry it too (ackState.q): marking a state dirty and queueing it
	// are one operation.
	dirtyQ *dirtyQueue
	// visited counts the ackStates Tick has purged so far, over all
	// passes: the cost of the index as a count (an idle Tick adds 0
	// whatever the history length).
	visited uint64
	// tickRecs is Tick's scratch for the Task-1 copy of MSG_i.
	tickRecs []*msgRec
	// thetaSet/starSet are the last materialised label sets of the AΘ and
	// AP* views (labelsOf), reused for as long as the view lists exactly
	// their members. thetaSet is also what every ledger entry's sent
	// points at while the view holds still — one set per node rather than
	// one per message — which is sound because a sent set is only ever
	// replaced, never mutated (DESIGN.md §10, "Label tables"). Caches of
	// the detector's output: not part of snapshots or fingerprints.
	thetaSet, starSet *ident.Set
}

// dirtyQueue is the retirement index's work list: the ackStates changed
// since the last Tick.
type dirtyQueue []*ackState

// ackSendState is one message's entry in the acker-side delta ledger
// (msgRec.send): the label set and epoch of this process's last labeled
// ACK for the message. Entries only appear once a delta ACK is sent — in
// DeltaAcks mode, or in answer to a resync request.
type ackSendState struct {
	// epoch numbers this acker's label-set versions for the message,
	// starting at 1 with the first labeled ACK.
	epoch uint64
	// sent is the label set as of epoch — what every in-sync receiver
	// holds for this (message, acker). Immutable: entries opened or
	// refreshed under the same AΘ view share one set (Quiescent.thetaSet).
	sent *ident.Set
	// reAckTick-1 is the tick at which the last unchanged re-ACK was
	// sent (0 = never), the D5 rate limiter: at most one unchanged
	// re-ACK per message per tick, instead of one per MSG reception.
	reAckTick uint64
	// snapTick-1 is the tick of the last snapshot broadcast (0 = never).
	// Snapshots answer resync requests; since every send is a broadcast,
	// one snapshot per tick serves every requester at once.
	snapTick uint64
}

// ackerView is one acker's entry in the receiver-side bookkeeping: the
// label set from its latest applied ACK plus the delta-stream position.
// Views are stored by value in ackState.ackers; a *ackerView points into
// that table and dies with the next insertion or removal.
type ackerView struct {
	labels *ident.Set
	// entry is the intern-table entry labels is shared through, nil for
	// an exclusively owned set. A shared set is immutable: every
	// mutation path copies first (and the compacted state re-interns the
	// result), so sharing never changes what the view reads.
	entry *setEntry
	// epoch is the last applied delta epoch (0 for legacy full-set ACKs,
	// which carry no epoch).
	epoch uint64
	// synced reports whether labels is known to equal the acker's ledger
	// at epoch, i.e. whether the next delta may be folded in. Legacy
	// full-set ACKs leave it false (no epoch to sequence against); the
	// D4 purge clears it when it locally removes labels the acker still
	// claims remotely.
	synced bool
}

// ackState is the paper's ALL_ACK / all_labels / label_counter bundle for
// one message.
type ackState struct {
	// ackers maps tag_ack → that acker's latest applied view (the paper's
	// all_labels[(m,tag), tag_ack]), in first-seen order of tag_acks.
	ackers ident.Table[ackerView]
	// claims maps label → number of ackers currently claiming it (the
	// paper's label_counter[(m,tag), label]). Counts are positive: a
	// label nobody claims has no entry.
	claims ident.Table[int]
	// reqTick rate-limits resync requests: reqTick[acker]-1 is the tick
	// of the last request for that acker's stream (at most one per
	// (message, acker) per tick). An entry only constrains its own tick.
	// Recording one queues the state (markDirty), so the next Tick's
	// purge drops the whole map — nothing accumulates across ticks (in
	// particular not for ackers that crashed before ever answering), and
	// re-requesting next tick is exactly the intended repair cadence.
	// The snapshot that repairs a stream clears its entry within the
	// tick too.
	reqTick map[ident.Tag]uint64
	// q is the owning process's dirty queue and pos this message's index
	// in its ackOrder.
	q   *dirtyQueue
	pos int32
	// dirty marks that Tick has work to do on this message: the claim
	// counters or acker membership changed since Tick last evaluated it
	// (every bump/drop, acker addition and label-set mutation), it was
	// delivered, a resync request was recorded, or it was just restored.
	// dirty ⇔ the state is in q exactly once (markDirty is the only
	// place the bit is set). Tick clears it after the purge + guard
	// pass; while it stays clear under unchanged detector views, both
	// are no-ops and the message is not visited at all.
	dirty bool
	// compacted marks that this message's views run on interned shared
	// sets (delivered under Config.CompactDelivered).
	compacted bool
}

// newAckState makes room for the expected number of ackers up front —
// in a stable cluster every acker claims the same labels, so the claim
// table gets as many slots — and the tables then never regrow.
func newAckState(q *dirtyQueue, pos, ackers int) *ackState {
	a := &ackState{q: q, pos: int32(pos)}
	a.ackers.Grow(ackers)
	a.claims.Grow(ackers)
	return a
}

// markDirty queues the state for the next Tick (idempotent).
func (a *ackState) markDirty() {
	if !a.dirty {
		a.dirty = true
		*a.q = append(*a.q, a)
	}
}

// bump increments a label's claim count.
func (a *ackState) bump(label ident.Tag) {
	if c, added := a.claims.Insert(label, 1); !added {
		*c++
	}
	a.markDirty()
}

// drop decrements a label's claim count, deleting the entry at zero —
// a missing key reads as 0 everywhere, and keeping it would leak one
// entry per dead label forever (the same monotonic growth the D4
// acker drop exists to stop).
func (a *ackState) drop(label ident.Tag) {
	a.markDirty()
	if i := a.claims.Find(label); i >= 0 {
		if c := a.claims.At(i); *c > 1 {
			*c--
		} else {
			a.claims.RemoveAt(i)
		}
	}
}

// internView moves a view's exclusively owned set into the intern table
// (compacted messages only); the view's set pointer becomes the shared
// canonical copy.
func (a *ackState) internView(in *setIntern, v *ackerView) {
	if !a.compacted || v.entry != nil {
		return
	}
	v.entry = in.intern(v.labels)
	v.labels = v.entry.labels
}

// disownView gives a view exclusive, mutable ownership of its set:
// shared sets are cloned first (copy-on-write).
func (a *ackState) disownView(in *setIntern, v *ackerView) {
	if v.entry == nil {
		return
	}
	s := v.labels.Clone()
	in.release(v.entry)
	v.entry = nil
	v.labels = s
}

// dropView releases a view's interned set, if any (the view is being
// deleted or its set replaced wholesale).
func (a *ackState) dropView(in *setIntern, v *ackerView) {
	if v.entry != nil {
		in.release(v.entry)
		v.entry = nil
	}
}

// replace applies a complete label set from one acker with *replacement*
// semantics (deviation D1): labels newly claimed are counted up, labels
// no longer claimed are counted down. This realises the paper's cases
// "repeated ACK with more labels" (lines 34-37) and "repeated ACK with
// fewer labels" (lines 38-44) in one well-defined rule. epoch/synced
// record the delta-stream position the set corresponds to (0/false for
// legacy full-set ACKs). Returns true if the acker is new.
func (a *ackState) replace(in *setIntern, acker ident.Tag, labels []ident.Tag, epoch uint64, synced bool) bool {
	cur := a.ackers.Ptr(acker)
	if cur == nil {
		s := ident.NewSet(labels...)
		for _, l := range s.Slice() {
			a.bump(l)
		}
		v, _ := a.ackers.Insert(acker, ackerView{labels: s, epoch: epoch, synced: synced})
		a.markDirty() // membership changed even if the set is empty
		a.internView(in, v)
		return true
	}
	// Unchanged-set fast path: a steady-state re-ACK replaces the set
	// with an equal one, so the diff accounting below would walk both
	// sets to change nothing. Only the stream position moves. An acker
	// under a stable view repeats its labels in the order the stored set
	// was built from, so that case is recognised on the incoming slice,
	// before any set is built; a reordered or repeating list takes the
	// set comparison below.
	var next *ident.Set
	same := slices.Equal(labels, cur.labels.Slice())
	if !same {
		next = ident.NewSet(labels...)
		same = next.Equal(cur.labels)
	}
	if same {
		cur.epoch = epoch
		cur.synced = synced
		return false
	}
	// Count up the additions.
	for _, l := range next.Slice() {
		if !cur.labels.Has(l) {
			a.bump(l)
		}
	}
	// Count down the removals.
	for _, l := range cur.labels.Slice() {
		if !next.Has(l) {
			a.drop(l)
		}
	}
	a.dropView(in, cur)
	cur.labels = next
	cur.epoch = epoch
	cur.synced = synced
	a.internView(in, cur)
	return false
}

// applyDelta folds one delta into an in-sync acker view: removals first,
// then additions (so a label adversarially present in both lists ends up
// claimed — a deterministic rule; canonical senders keep the lists
// disjoint). Folding (+A, −R) into a view equal to the acker's set at
// epoch−1 yields exactly the acker's set at epoch, so every bump/drop
// here is one the full-set replace would also have performed: the two
// paths are state-for-state equivalent.
func (a *ackState) applyDelta(in *setIntern, v *ackerView, epoch uint64, adds, dels []ident.Tag) {
	if v.entry != nil {
		// Copy-on-write, but only when the delta changes membership —
		// an in-place no-op delta (e.g. removals of absent labels) must
		// not break the sharing.
		mutates := false
		for _, l := range dels {
			if v.labels.Has(l) {
				mutates = true
				break
			}
		}
		if !mutates {
			for _, l := range adds {
				if !v.labels.Has(l) {
					mutates = true
					break
				}
			}
		}
		if mutates {
			a.disownView(in, v)
		}
	}
	for _, l := range dels {
		if v.labels.Remove(l) {
			a.drop(l)
		}
	}
	for _, l := range adds {
		if v.labels.Add(l) {
			a.bump(l)
		}
	}
	v.epoch = epoch
	a.internView(in, v)
}

// purge removes every claimed label for which keep returns false
// (deviation D4: stale labels of crashed processes frozen inside ACKs
// from ackers that will never refresh — e.g. the crashed process's own
// ACK — would otherwise block the retirement guard forever). Safe
// because AP* perpetually contains every correct process's label, so a
// label absent from both current views can only belong to a crashed
// process.
//
// Ackers whose label set the purge empties are dropped entirely: an
// empty set contributes nothing to any claim count, passes every
// subset check, and would never be refreshed (its owner is crashed) —
// keeping the entry would only grow the acker table monotonically
// and tax every retireReady scan with dead ackers forever. If the
// acker was wrongly suspected and re-ACKs later, the algorithm
// re-admits it as a fresh acker with identical claim accounting.
//
// A purge that removes labels from a surviving view also clears its
// synced bit: the local copy no longer matches the acker's ledger, so
// subsequent deltas cannot be folded in — the next one triggers a
// resync, and the acker's snapshot restores any label the purge removed
// wrongly (a label that returns to the views pre-GST). Without this,
// the delta path could lose a wrongly-purged label forever, because a
// delta sender — unlike the paper's full-set re-ACKs — never resends
// labels it believes the receiver already has.
// purgedEntry memoises one interned set's purge outcome within a single
// purge pass: the labels the live view kills and the entry the
// survivors re-intern to (nil when the set empties). Views sharing an
// entry share the outcome, so a view-shift purge over thousands of
// compacted views pays the set arithmetic once per distinct set.
type purgedEntry struct {
	removed []ident.Tag
	to      *setEntry
}

func (a *ackState) purge(in *setIntern, keep func(ident.Tag) bool) {
	// Last tick's resync-request limiters are spent; dropping the map
	// wholesale is what keeps it from accumulating entries for ackers
	// that never got admitted (e.g. crashed before their snapshot).
	a.reqTick = nil
	var memo map[*setEntry]purgedEntry
	for i := 0; i < a.ackers.Len(); {
		if a.purgeView(in, a.ackers.At(i), keep, &memo) {
			i++
		} else {
			a.ackers.RemoveAt(i)
		}
	}
	for _, pe := range memo {
		in.release(pe.to) // release(nil) is a no-op
	}
}

// purgeView applies the purge to one acker's view; it reports whether the
// acker survives (false: the caller drops its entry).
func (a *ackState) purgeView(in *setIntern, v *ackerView, keep func(ident.Tag) bool, memo *map[*setEntry]purgedEntry) bool {
	if v.entry != nil {
		// Shared set: compute (or reuse) the entry's purge outcome.
		pe, ok := (*memo)[v.entry]
		if !ok {
			for _, l := range v.entry.labels.Slice() {
				if !keep(l) {
					pe.removed = append(pe.removed, l)
				}
			}
			if n := len(pe.removed); n > 0 && n < v.entry.labels.Len() {
				next := ident.NewSet()
				for _, l := range v.entry.labels.Slice() {
					if keep(l) {
						next.Add(l)
					}
				}
				pe.to = in.intern(next)
				// The intern above took the memo's own reference; it is
				// released when the pass ends (each surviving view takes
				// its own below), keeping the entry alive meanwhile.
			}
			if *memo == nil {
				*memo = make(map[*setEntry]purgedEntry)
			}
			(*memo)[v.entry] = pe
		}
		if len(pe.removed) == 0 {
			if v.entry.labels.Len() == 0 {
				// Empty-set ackers are dropped (nothing claims, never
				// refreshed), shared or not.
				in.release(v.entry)
				return false
			}
			return true
		}
		for _, l := range pe.removed {
			a.drop(l)
		}
		in.release(v.entry)
		if pe.to == nil { // the whole set was stale: drop the acker
			return false
		}
		pe.to.refs++
		v.entry = pe.to
		v.labels = pe.to.labels
		v.synced = false
		return true
	}
	// Exclusive set: scan before touching (steady state is no-op).
	stale := false
	for _, l := range v.labels.Slice() {
		if !keep(l) {
			stale = true
			break
		}
	}
	if stale {
		for _, l := range append([]ident.Tag(nil), v.labels.Slice()...) {
			if !keep(l) {
				v.labels.Remove(l)
				a.drop(l)
				v.synced = false
			}
		}
	}
	if v.labels.Len() == 0 {
		return false
	}
	if stale {
		a.internView(in, v)
	}
	return true
}

var _ Process = (*Quiescent)(nil)

// NewQuiescent builds an Algorithm 2 process. Unlike Algorithm 1 it does
// not need to know n: the failure detector's numbers replace the majority
// threshold. tags must be a per-process stream; det is the process's
// failure detector handle (AΘ and AP* views).
func NewQuiescent(det fd.Detector, tags *ident.Source, cfg Config) *Quiescent {
	return &Quiescent{
		common: newCommon(cfg, tags),
		det:    det,
		dirtyQ: new(dirtyQueue),
	}
}

// Receive implements Process over ReceiveTo.
//
//urb:hotpath
func (p *Quiescent) Receive(m wire.Message) Step {
	var out Step
	p.ReceiveTo(&out, &m)
	return out
}

// ReceiveTo resolves the message's record, then dispatches on kind
// (lines 7-51), appending the outputs to out, which it never reads (see
// Majority.ReceiveTo).
//
//urb:hotpath
func (p *Quiescent) ReceiveTo(out *Step, m *wire.Message) {
	//urbvet:partial beat-family kinds are host traffic, consumed by HeartbeatHost before the algorithm
	switch m.Kind {
	case wire.KindMsg:
		p.receiveMsg(out, p.record(m.Tag, m.Body))
	case wire.KindAck:
		p.receiveAck(out, p.record(m.Tag, m.Body), m)
	case wire.KindAckDelta:
		p.receiveAckDelta(out, p.record(m.Tag, m.Body), m)
	case wire.KindAckReq:
		// A request about a message this process never heard of cannot be
		// for one of its streams: no record is made for it.
		if rec := p.recs.lookup(m.Tag, m.Body); rec != nil {
			p.receiveAckResync(out, rec, m.AckTag)
		}
	}
}

// receiveMsg handles (MSG, m, tag) (lines 7-21).
func (p *Quiescent) receiveMsg(out *Step, rec *msgRec) {
	// RECV traces the first MSG copy only (same policy as Majority):
	// retransmissions carry no lifecycle information.
	if p.tr != nil && !rec.saw {
		p.tr.Recv(rec.id, wire.KindMsg)
	}
	rec.saw = true
	// Lines 8-12: (re-)insert into MSG_i only if not yet delivered; this
	// is what keeps a retired message retired when late MSG copies
	// straggle in.
	if !rec.delivered && p.msgs.add(rec) && p.cfg.EagerFirstSend {
		p.send(out, wire.NewMsg(rec.id))
	}
	if !rec.pinned {
		rec.ack, rec.pinned = p.tags.Next(), true // line 17: pinned forever after
		// Durable: the pin must survive a crash so the recovered process
		// re-acks under the same anonymous identity (DESIGN.md §9).
		out.Durable = append(out.Durable,
			DurableEvent{Kind: WALPin, ID: rec.id, Ack: rec.ack, Draws: p.tags.Draws()})
	}
	// Lines 13-20: every (re-)ACK carries the *current* AΘ label view, so
	// receivers can refresh their per-acker label sets. In delta mode the
	// view travels incrementally instead (D5).
	theta := p.det.ATheta()
	if !p.cfg.DeltaAcks {
		p.send(out, wire.NewLabeledAck(rec.id, rec.ack, labelsOf(&p.thetaSet, theta).Slice()))
		return
	}
	p.sendDeltaAck(out, rec, theta)
}

// labelsOf returns v's label set through a one-entry cache: the set
// materialised last time is reused while v lists exactly its members, in
// its order — comparing a handful of tags in place instead of building a
// set to compare. The result is shared and must not be mutated. A view
// that repeats a label (a user fd.Func need not normalise) never matches
// the de-duplicated set and is materialised every time.
func labelsOf(cache **ident.Set, v fd.View) *ident.Set {
	if s := *cache; s != nil && viewLists(v, s) {
		return s
	}
	*cache = v.Labels()
	return *cache
}

// viewLists reports whether v's labels are, in order, exactly s's
// members.
func viewLists(v fd.View, s *ident.Set) bool {
	tags := s.Slice()
	if len(v) != len(tags) {
		return false
	}
	for i := range v {
		if v[i].Label != tags[i] {
			return false
		}
	}
	return true
}

// changedLabels compares the AΘ view with a ledger entry's sent set,
// reading the view in place: nil while the view still has exactly sent's
// members (the steady state, decided without building anything), the
// view's label set once it differs.
func (p *Quiescent) changedLabels(theta fd.View, sent *ident.Set) *ident.Set {
	if viewLists(theta, sent) {
		return nil
	}
	// Not the same list; it can still be the same set (a reordered or
	// repeating view), which only the materialised form can tell.
	if labels := labelsOf(&p.thetaSet, theta); !labels.Equal(sent) {
		return labels
	}
	return nil
}

// sendDeltaAck emits the D5 incremental form of the line 13-20 ACK:
// a snapshot the first time, a (+adds, −dels) delta when the AΘ label
// view changed since the last ACK for rec, and an empty re-ACK — at most
// one per tick — when it did not.
func (p *Quiescent) sendDeltaAck(out *Step, rec *msgRec, theta fd.View) {
	id, ack := rec.id, rec.ack
	st := rec.send
	if st == nil {
		labels := labelsOf(&p.thetaSet, theta)
		st = &ackSendState{epoch: p.epochFloor + 1, sent: labels, snapTick: p.ticks + 1, reAckTick: p.ticks + 1}
		rec.send = st
		p.send(out, wire.NewAckSnapshot(id, ack, st.epoch, labels.Slice()))
		return
	}
	if labels := p.changedLabels(theta, st.sent); labels != nil {
		var adds, dels []ident.Tag
		for _, l := range labels.Slice() {
			if !st.sent.Has(l) {
				adds = append(adds, l)
			}
		}
		for _, l := range st.sent.Slice() {
			if !labels.Has(l) {
				dels = append(dels, l)
			}
		}
		st.epoch++
		st.sent = labels
		st.reAckTick = p.ticks + 1
		p.send(out, wire.NewAckDelta(id, ack, st.epoch, adds, dels))
		return
	}
	// Unchanged set: re-ACK at most once per tick (D5 rate limit). The
	// re-ACK still matters — it carries the payload for fast delivery
	// and lets receivers that never saw this acker detect the stream
	// and request a resync — but once per tick is as often as Task-1
	// retransmission can need it.
	if st.reAckTick == p.ticks+1 {
		return
	}
	st.reAckTick = p.ticks + 1
	p.send(out, wire.NewAckDelta(id, ack, st.epoch, nil, nil))
}

// receiveAck handles the full-set form (ACK, m, tag, tag_ack, labels)
// (lines 22-51). The set replaces the acker's view wholesale; it carries
// no epoch, so the view is left unsynced and a subsequent delta from the
// same acker resynchronises via snapshot first.
func (p *Quiescent) receiveAck(out *Step, rec *msgRec, m *wire.Message) {
	if p.tr != nil {
		p.tr.Recv(rec.id, wire.KindAck)
	}
	if rec.settled() {
		return // no guard reads these claims again (D3)
	}
	st := p.ackStateFor(rec)
	st.replace(&p.sets, m.AckTag, m.Labels, 0, false) // lines 27-45 (D1)
	p.checkDeliver(out, rec)                          // lines 46-51
}

// receiveAckDelta handles the incremental form (D5). Snapshots replace;
// in-sequence deltas fold into the claim counters; anything else — an
// epoch gap, an unknown or unsynced acker — leaves the claims untouched
// and asks the acker for a snapshot (rate-limited per (message, acker)
// per tick).
func (p *Quiescent) receiveAckDelta(out *Step, rec *msgRec, m *wire.Message) {
	if p.tr != nil {
		p.tr.Recv(rec.id, wire.KindAckDelta)
	}
	// A settled message's claims are read by no guard again (D3), so they
	// are neither reopened nor repaired: a gap here sends no ACKREQ. Every
	// receiver still holding the message requests its own resyncs.
	if rec.settled() {
		return
	}
	// Delivered-message fast path: the steady state of a quiescent
	// cluster is delivered messages absorbing unchanged re-ACKs (empty
	// deltas at the acker's current epoch) once per tick until
	// retirement. For those nothing below can change — the delta is
	// stale-or-duplicate for the view and the delivery guard is already
	// satisfied — so return before touching the claim machinery.
	if rec.delivered && rec.st != nil && m.Flags == 0 && len(m.Labels) == 0 && len(m.DelLabels) == 0 {
		if v := rec.st.ackers.Ptr(m.AckTag); v != nil && v.synced && m.Epoch <= v.epoch {
			return
		}
	}
	st := p.ackStateFor(rec)
	v := st.ackers.Ptr(m.AckTag)
	if m.Flags&wire.AckFlagSnapshot != 0 {
		// A snapshot is authoritative for its epoch: apply unless we
		// provably hold that epoch or a later one.
		if v == nil || !v.synced || m.Epoch > v.epoch {
			st.replace(&p.sets, m.AckTag, m.Labels, m.Epoch, true)
			delete(st.reqTick, m.AckTag)
		}
	} else {
		// An epoch only ever advances together with a set change, so a
		// change-delta always carries at least one label; an *empty*
		// delta is the unchanged re-ACK, stamped with the sender's
		// current epoch. An empty delta ahead of our epoch therefore
		// proves we missed the change-delta that advanced it — folding
		// it would mark us synced at an epoch whose change we never
		// applied, silently diverging forever. Only non-empty deltas may
		// advance the stream.
		change := len(m.Labels) > 0 || len(m.DelLabels) > 0
		switch {
		case v != nil && v.synced && m.Epoch == v.epoch+1 && change:
			st.applyDelta(&p.sets, v, m.Epoch, m.Labels, m.DelLabels)
		case v != nil && v.synced && m.Epoch <= v.epoch:
			// Stale or duplicated delta: already reflected, ignore.
		default:
			// Gap, unknown acker, or a view the purge desynced: the delta
			// cannot be folded safely. Ask for a snapshot — within the
			// per-tick resync budget (D9): a denied request leaves no
			// trace, so the stream simply asks again next tick.
			if st.reqTick[m.AckTag] != p.ticks+1 &&
				p.resync.take(p.cfg.resyncLimit(), p.ticks+1) {
				if st.reqTick == nil {
					st.reqTick = make(map[ident.Tag]uint64)
				}
				st.reqTick[m.AckTag] = p.ticks + 1
				// Queued so the next Tick drops the entry even if nothing
				// else about this message ever changes again.
				st.markDirty()
				p.send(out, wire.NewAckResync(rec.id, m.AckTag))
			}
		}
	}
	// Line 46 runs on *every* ACK reception, not only on ones that
	// changed the claims: the guard reads the live AΘ view, so a stale
	// or empty re-ACK can still enable a delivery the view's numbers
	// dropping has unblocked — exactly as the full-set path re-checks on
	// every re-ACK.
	p.checkDeliver(out, rec)
}

// receiveAckResync answers a resync request addressed to this process's
// tag_ack for the message: broadcast a snapshot of the current ledger
// (refreshing it against the live AΘ view first), at most once per
// message per tick — every send is a broadcast, so one snapshot serves
// all requesters.
func (p *Quiescent) receiveAckResync(out *Step, rec *msgRec, ackTag ident.Tag) {
	if !rec.pinned || rec.ack != ackTag {
		return // someone else's stream (or a message we never ACKed)
	}
	st := rec.send
	if st != nil && st.snapTick == p.ticks+1 {
		return
	}
	if st == nil {
		// Our ACK for the message predates delta mode (or was sent by the
		// full-set path): open the ledger now with a fresh snapshot.
		st = &ackSendState{epoch: p.epochFloor + 1, sent: labelsOf(&p.thetaSet, p.det.ATheta())}
		rec.send = st
	} else if labels := p.changedLabels(p.det.ATheta(), st.sent); labels != nil {
		st.epoch++
		st.sent = labels
	}
	st.snapTick = p.ticks + 1
	st.reAckTick = p.ticks + 1 // the snapshot doubles as this tick's re-ACK
	p.send(out, wire.NewAckSnapshot(rec.id, rec.ack, st.epoch, st.sent.Slice()))
}

// ackStateFor returns (creating on demand) the message's ACK bookkeeping
// (lines 23-26).
func (p *Quiescent) ackStateFor(rec *msgRec) *ackState {
	if rec.st == nil {
		// Sized from the AΘ view as Tick last read it: its labels are the
		// processes whose ACKs are about to arrive.
		rec.st = newAckState(p.dirtyQ, len(p.ackOrder), len(p.lastTheta))
		// ACKs for a delivered message still in MSG_i (one a WAL replay
		// put back) open their state directly in compacted form.
		rec.st.compacted = p.cfg.CompactDelivered && rec.delivered
		p.ackOrder = append(p.ackOrder, rec)
	}
	return rec.st
}

// checkDeliver applies the delivery guard: ∃ (label, number) ∈ AΘ with
// claims[label] >= number (deviation D2: >= instead of =; see DESIGN.md).
func (p *Quiescent) checkDeliver(out *Step, rec *msgRec) {
	st := rec.st
	if rec.delivered || st == nil {
		return
	}
	theta := p.det.ATheta()
	for _, pair := range theta {
		if st.claims.Value(pair.Label) >= pair.Number {
			p.deliverOnce(out, rec)
			// Delivery makes the message retirement-eligible: the next
			// Tick must evaluate it even under unchanged views.
			st.markDirty()
			p.compactState(st)
			// Delivered fast, before any MSG copy, the message never
			// enters MSG_i: its claims are settled at once, and the next
			// Tick frees them.
			p.freeable = p.freeable || rec.slot < 0
			return
		}
	}
	if p.tr != nil && len(theta) > 0 {
		// Guard failed: trace the evidence on the pair closest to
		// passing (smallest claim deficit) — the accumulation curve the
		// timeline and the stall explainer read.
		best := theta[0]
		bestHave := st.claims.Value(best.Label)
		for _, pair := range theta[1:] {
			have := st.claims.Value(pair.Label)
			if pair.Number-have < best.Number-bestHave {
				best, bestHave = pair, have
			}
		}
		p.tr.AckProgress(rec.id, best.Label, bestHave, best.Number)
	}
}

// compactState switches a delivered message's acker views onto interned
// shared sets (Config.CompactDelivered, DESIGN.md §10). Idempotent; a
// no-op when compaction is off.
//
// The dominant case at delivery time is every acker holding the same
// post-GST view, so the canonical key (a sort plus a string build) is
// computed once: runs of views equal to the previously interned set
// take a reference directly.
func (p *Quiescent) compactState(st *ackState) {
	if st.compacted || !p.cfg.CompactDelivered {
		return
	}
	st.compacted = true
	var last *setEntry
	for i := 0; i < st.ackers.Len(); i++ {
		v := st.ackers.At(i)
		if v.entry != nil {
			last = v.entry
			continue
		}
		if last != nil && v.labels.Equal(last.labels) {
			last.refs++
			v.entry = last
			v.labels = last.labels
			continue
		}
		st.internView(&p.sets, v)
		last = v.entry
	}
}

// retireReady evaluates the retirement guard (paper line 55, deviation
// D3) for one delivered message against the current AP* view;
// starLabels is that view's label set.
func (p *Quiescent) retireReady(rec *msgRec, star fd.View, starLabels *ident.Set) bool {
	st := rec.st
	if !rec.delivered || st == nil { // line 56
		return false
	}
	if len(star) == 0 {
		return false // no evidence about the correct set: never retire
	}
	// Every pair covered: claims[label] >= number.
	for _, pair := range star {
		if st.claims.Value(pair.Label) < pair.Number {
			return false
		}
	}
	// No acker still claims a label outside the AP* view (the paper's
	// all_labels = {label | (label,-) ∈ a_p*} clause).
	for i := 0; i < st.ackers.Len(); i++ {
		if !st.ackers.At(i).labels.SubsetOf(starLabels) {
			return false
		}
	}
	return true
}

// Tick is one pass of Task 1 (lines 52-61): retransmit every message
// still in MSG_i, and retire those whose guard holds. Stale labels that
// can no longer appear in any current view are purged first (D4) so that
// frozen ACKs from crashed ackers cannot block retirement forever.
//
// The retirement index (DESIGN.md §10) bounds the pass: the D4 purge and
// the two guards are deterministic functions of a message's ACK state
// and the detector views, so when the views match the previous pass and
// a message's ACK state has not changed since (dirty unset), re-running
// them provably reproduces the previous outcome — a no-op purge and a
// false guard (had it been true, the message would already be delivered
// or retired). Under unchanged views Tick therefore visits only the
// dirty queue, in ackOrder position order — the order the full pass
// walks, so the intern table and the deliveries inside the Step come out
// the same either way — and costs O(queued·log queued + |MSG_i|). The
// full pass over the whole history runs only when a view changed or
// after a restore. MSG retransmission itself is never skipped, it is the
// protocol.
func (p *Quiescent) Tick() Step {
	var out Step
	p.ticks++
	star := p.det.APStar()
	theta := p.det.ATheta()
	full := !p.viewsKnown || !theta.Equal(p.lastTheta) || !star.Equal(p.lastStar)
	// The D4 purge keeps every label in either current view.
	thetaLabels, starLabels := labelsOf(&p.thetaSet, theta), labelsOf(&p.starSet, star)
	live := func(l ident.Tag) bool { return thetaLabels.Has(l) || starLabels.Has(l) }
	if full {
		p.lastTheta = append(p.lastTheta[:0], theta...)
		p.lastStar = append(p.lastStar[:0], star...)
		p.viewsKnown = true
		for _, rec := range p.ackOrder {
			rec.st.purge(&p.sets, live)
		}
		if p.cfg.CheckOnTick {
			for _, rec := range p.ackOrder {
				p.checkDeliver(&out, rec)
			}
		}
		p.visited += uint64(len(p.ackOrder))
	} else if q := *p.dirtyQ; len(q) > 0 {
		slices.SortFunc(q, func(a, b *ackState) int { return cmp.Compare(a.pos, b.pos) })
		for _, st := range q {
			st.purge(&p.sets, live)
		}
		if p.cfg.CheckOnTick {
			for _, st := range q {
				p.checkDeliver(&out, p.ackOrder[st.pos])
			}
		}
		p.visited += uint64(len(q))
	}
	p.tickRecs = p.msgs.appendLive(p.tickRecs[:0])
	for _, rec := range p.tickRecs {
		ready := false
		if rec.delivered && (full || (rec.st != nil && rec.st.dirty)) {
			ready = p.retireReady(rec, star, starLabels)
		}
		// The guard's outcome cannot change between the two retirement
		// sites of one pass (line 54 sends mutate nothing it reads), so
		// one evaluation serves both.
		if ready && p.cfg.RetireBeforeSend {
			p.retire(rec)
			continue
		}
		p.send(&out, wire.NewMsg(rec.id)) // line 54
		if ready {                        // lines 55-58
			p.retire(rec)
		}
	}
	// Every state this pass dirtied or found dirty is in the queue
	// (dirty ⇔ queued), so draining it clears every flag — after a full
	// pass too.
	for _, st := range *p.dirtyQ {
		st.dirty = false
	}
	*p.dirtyQ = (*p.dirtyQ)[:0]
	if p.freeable {
		p.freeClaims()
	}
	return out
}

// retire deletes rec from MSG_i (line 57). Its record stays; its claim
// state goes at the end of the Tick (freeClaims).
func (p *Quiescent) retire(rec *msgRec) {
	p.msgs.remove(rec)
	p.retired++
	p.freeable = true
	if p.tr != nil {
		p.tr.Retire(rec.id)
	}
}

// settled reports that rec is delivered and outside MSG_i: retired, or
// delivered fast and never queued. Such a message never re-enters MSG_i,
// and no guard reads its claims: the delivery guard skips a delivered
// message, the retirement guard runs only over MSG_i (DESIGN.md §2, D3).
func (r *msgRec) settled() bool { return r.delivered && r.slot < 0 }

// freeClaims drops the claim state of every settled record, releasing its
// interned sets, and compacts ackOrder in order, renumbering each
// survivor's pos. The record itself, with its pin, flags and send ledger,
// stays. A freed state must not stay queued, so this runs only while the
// dirty queue is empty (or is rebuilt afterwards).
func (p *Quiescent) freeClaims() {
	live := p.ackOrder[:0]
	for _, rec := range p.ackOrder {
		st := rec.st
		if rec.settled() {
			for i := range st.ackers.Len() {
				st.dropView(&p.sets, st.ackers.At(i))
			}
			rec.st = nil
			continue
		}
		st.pos = int32(len(live))
		live = append(live, rec)
	}
	clear(p.ackOrder[len(live):])
	p.ackOrder = live
	p.freeable = false
}

// Stats implements Process.
func (p *Quiescent) Stats() Stats {
	out := p.commonStats()
	exclusive := 0
	for _, rec := range p.ackOrder {
		st := rec.st
		out.AckEntries += st.ackers.Len()
		if st.compacted {
			out.CompactedMsgs++
		}
		for i := 0; i < st.ackers.Len(); i++ {
			v := st.ackers.At(i)
			out.AckLabels += v.labels.Len()
			if v.entry == nil {
				exclusive += v.labels.Len()
			}
		}
	}
	out.Retired = p.retired
	out.AckLabelStorage = exclusive + p.sets.storage()
	return out
}

// ackState returns id's ACK bookkeeping, nil if there is none.
func (p *Quiescent) ackState(id wire.MsgID) *ackState {
	if rec := p.recs.find(id); rec != nil {
		return rec.st
	}
	return nil
}

// Claims reports the current claim count for (id, label) — test hook.
func (p *Quiescent) Claims(id wire.MsgID, label ident.Tag) int {
	if st := p.ackState(id); st != nil {
		return st.claims.Value(label)
	}
	return 0
}

// Ackers reports how many distinct tag_acks have been seen for id.
func (p *Quiescent) Ackers(id wire.MsgID) int {
	if st := p.ackState(id); st != nil {
		return st.ackers.Len()
	}
	return 0
}

// RetiredCount reports how many messages have been retired.
func (p *Quiescent) RetiredCount() int { return p.retired }

// Explain is the stall explainer (DESIGN.md §14): it evaluates the live
// delivery guard (∃ AΘ pair with enough claims) and retirement guard
// (every AP* pair covered, no stray acker labels) for id and reports
// per-pair shortfalls, pending ACKREQ resyncs and unsynced delta
// streams — exactly the evidence still missing. Call it on the
// goroutine hosting the process.
func (p *Quiescent) Explain(id wire.MsgID) obs.Explanation {
	ex := obs.Explanation{ID: id, Algo: "quiescent"}
	var st *ackState
	if rec := p.recs.find(id); rec != nil {
		st = rec.st
		ex.Delivered = rec.delivered
		ex.Known = st != nil || rec.slot >= 0 || rec.saw || rec.delivered
		// Retired: delivered and no longer retransmitted. A fast-delivered
		// message whose MSG copy never arrived is also absent from MSG_i, so
		// require the copy to have been seen before calling it retired.
		ex.Retired = rec.settled() && rec.saw
		if rec.settled() {
			// Either way it waits on no guard: its claims are freed by the
			// next Tick (D3), so there is no gap to report.
			if st != nil {
				ex.Ackers = st.ackers.Len()
			}
			return ex
		}
	}
	for _, pair := range p.det.ATheta() {
		have := 0
		if st != nil {
			have = st.claims.Value(pair.Label)
		}
		ex.Gaps = append(ex.Gaps, obs.EvidenceGap{Label: pair.Label, Have: have, Need: pair.Number})
	}
	if st != nil {
		ex.Ackers = st.ackers.Len()
		for _, tick := range st.reqTick {
			if tick == p.ticks+1 {
				ex.PendingResync++
			}
		}
		for i := 0; i < st.ackers.Len(); i++ {
			if !st.ackers.At(i).synced {
				ex.UnsyncedAckers++
			}
		}
	}
	if ex.Delivered && !ex.Retired {
		star := p.det.APStar()
		for _, pair := range star {
			have := 0
			if st != nil {
				have = st.claims.Value(pair.Label)
			}
			ex.RetireGaps = append(ex.RetireGaps, obs.EvidenceGap{Label: pair.Label, Have: have, Need: pair.Number})
		}
		if st != nil && len(star) > 0 {
			for i := 0; i < st.ackers.Len(); i++ {
				for _, l := range st.ackers.At(i).labels.Slice() {
					if !star.Has(l) && !tagIn(ex.StrayLabels, l) {
						ex.StrayLabels = append(ex.StrayLabels, l)
					}
				}
			}
		}
	}
	return ex
}
