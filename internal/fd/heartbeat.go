package fd

import (
	"math"
	"slices"

	"anonurb/internal/ident"
)

// Heartbeat is a message-exchange realisation of AΘ and AP* for runs that
// are synchronous enough, mirroring how Θ and P are realised in
// non-anonymous systems. It shows the oracle classes are implementable —
// the axioms are not free lunch, they encode a synchrony assumption.
//
// Protocol: every process draws one permanent random label and
// periodically broadcasts ALIVE(label). Each process tracks, per label,
// the time it last heard it. A label is trusted while it was heard within
// Timeout; the output views are
//
//	{(label, number) : label trusted}, number = |trusted labels|,
//
// with the process's own label always trusted. Under the assumptions
// below, after every crashed process's last heartbeat has expired and
// every correct process's heartbeats flow within the timeout, the views
// are exactly the correct labels with number = |Correct| — the post-GST
// shape of the grounded oracle — and the class axioms hold:
//
//   - Crash detection (AP*-accuracy): a crashed process stops beating, so
//     its label expires everywhere, permanently.
//   - Completeness: correct processes beat forever, so their labels stay
//     trusted with the right count.
//   - Perpetual AΘ-accuracy and the audience invariant hold because a
//     heartbeat reveals a label precisely to the processes that receive
//     it: processes that have crashed stop refreshing S(label), and —
//     KEY ASSUMPTION — timeouts never fire for live correct processes
//     (synchrony), so `number` never under-counts the correct knowers.
//
// On a truly asynchronous network the timeout can lie; Heartbeat is then
// NOT a legal AΘ/AP* (accuracy breaks), which is exactly why the paper
// posits the detectors axiomatically instead of building them. The
// simulator experiments therefore use the grounded oracle; Heartbeat
// exists for the live runtime and for the synchrony ablation test.
//
// ATheta and APStar return one shared, read-only view (the package
// contract): it is rebuilt only when a label comes or goes, and a
// rebuild that lists the same pairs hands the old slice out again.
//
// Heartbeat is not safe for concurrent use; the hosting runtime
// serialises calls as it does for urb.Process.
type Heartbeat struct {
	label   ident.Tag
	timeout int64
	clock   func() int64
	// heard lists every label ever heard with the time it was last
	// heard, kept sorted by label at insertion, so building a view is one
	// pass with no sort and no map lookup. The own label is implicitly
	// always fresh.
	heard []HeardLabel
	// cache is the view last handed out, built at clock reading built;
	// until is the first reading at which one of its non-own labels
	// expires. It answers every read in [built, until) while fresh:
	// hearing a label it lists only extends that label's life, and any
	// other change to the trusted set clears fresh. buf is the
	// rebuild buffer, handed out (and dropped) only when a rebuild
	// differs from cache. All of it is derived state, outside snapshots
	// and fingerprints.
	cache        View
	built, until int64
	fresh        bool
	buf          View
}

// NewHeartbeat builds a heartbeat detector with the given permanent
// label, trust timeout and clock.
func NewHeartbeat(label ident.Tag, timeout int64, clock func() int64) *Heartbeat {
	if timeout <= 0 {
		panic("fd: heartbeat timeout must be positive")
	}
	return &Heartbeat{label: label, timeout: timeout, clock: clock}
}

// Label returns the detector's own label (to be broadcast in ALIVE
// messages by the hosting runtime).
func (h *Heartbeat) Label() ident.Tag { return h.label }

// Timeout returns the trust timeout the detector was built with
// (snapshot-compatibility checks need it).
func (h *Heartbeat) Timeout() int64 { return h.timeout }

// Relabel replaces the detector's own label. It exists for crash
// recovery: the label is the process's persistent anonymous identity
// towards its peers, so a process restored from a snapshot must adopt
// the label it beat under before the crash rather than the fresh one its
// reconstruction drew.
func (h *Heartbeat) Relabel(label ident.Tag) {
	h.label = label
	h.fresh = false
}

// HeardLabel is one entry of the detector's heard map: a label and the
// clock time it was last heard (snapshot support for crash-recovery
// hosts).
type HeardLabel struct {
	Label ident.Tag
	At    int64
}

// Heard returns every label ever heard, sorted by label, with its
// last-heard time.
func (h *Heartbeat) Heard() []HeardLabel {
	return slices.Clone(h.heard)
}

// RestoreHeard replaces the heard list wholesale with the given entries
// (in any order; a repeated label keeps its last time). Crash-recovery
// hosts use it to reload a snapshot; entries whose times predate the
// restarted clock's epoch simply read as expired, the conservative
// outcome.
func (h *Heartbeat) RestoreHeard(entries []HeardLabel) {
	h.heard = h.heard[:0]
	for _, e := range entries {
		h.hearAt(e.Label, e.At)
	}
	h.fresh = false
}

// Hear records an ALIVE(label) reception.
func (h *Heartbeat) Hear(label ident.Tag) { h.hearAt(label, h.clock()) }

// hearAt records label as heard at time at, inserting a new label at its
// sorted position. The cached view stays fresh only if it lists label
// and at does not move label's time back (a clock stepped back), so
// that until still bounds every listed label's expiry from below.
func (h *Heartbeat) hearAt(label ident.Tag, at int64) {
	i, known := slices.BinarySearchFunc(h.heard, label,
		func(e HeardLabel, l ident.Tag) int { return e.Label.Compare(l) })
	if !known {
		h.heard = slices.Insert(h.heard, i, HeardLabel{Label: label})
	}
	if !known || at < h.heard[i].At || !h.cache.Has(label) {
		h.fresh = false
	}
	h.heard[i].At = at
}

// view returns the (label, number) view of the currently trusted
// labels: every label heard within the timeout plus, always, the own
// label. The cached view answers while it is fresh and now lies in
// [built, until); otherwise the view is rebuilt, and a rebuild equal to
// the cache keeps handing the cached slice out.
func (h *Heartbeat) view() View {
	now := h.clock()
	if h.fresh && h.built <= now && now < h.until {
		return h.cache
	}
	if h.buf == nil {
		h.buf = make(View, 0, len(h.heard)+1)
	}
	v, until := h.build(h.buf[:0], now)
	if v.Equal(h.cache) {
		h.buf = v
	} else {
		// The rebuilt view is handed out, so it may never be written
		// again: the next rebuild starts a new buffer.
		h.cache, h.buf = slices.Clip(v), nil
	}
	h.built, h.until, h.fresh = now, until, true
	return h.cache
}

// build appends the view at clock reading now to v and returns it with
// the first reading at which one of its non-own labels expires
// (math.MaxInt64 if it lists none). heard is sorted, so merging the own
// label in at its position yields a normalized view in one pass.
func (h *Heartbeat) build(v View, now int64) (View, int64) {
	until := int64(math.MaxInt64)
	own := false
	for _, e := range h.heard {
		if !own && !e.Label.Less(h.label) {
			v = append(v, Pair{Label: h.label})
			own = true
		}
		if e.Label != h.label && now-e.At <= h.timeout {
			v = append(v, Pair{Label: e.Label})
			until = min(until, e.At+h.timeout+1)
		}
	}
	if !own {
		v = append(v, Pair{Label: h.label})
	}
	for i := range v {
		v[i].Number = len(v)
	}
	return v, until
}

// ATheta implements Detector.
func (h *Heartbeat) ATheta() View { return h.view() }

// APStar implements Detector.
func (h *Heartbeat) APStar() View { return h.view() }

var _ Detector = (*Heartbeat)(nil)
