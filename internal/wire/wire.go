// Package wire defines the messages exchanged by the paper's algorithms
// and a canonical binary codec for them.
//
// Two kinds of message travel on the network, exactly as in the paper:
//
//   - MSG:  (MSG, m, tag)                         — Algorithms 1 and 2
//   - ACK:  (ACK, m, tag, tag_ack)                — Algorithm 1
//     (ACK, m, tag, tag_ack, labels)        — Algorithm 2
//
// The ACK carries the payload m itself; this is what enables the "fast
// delivery" behaviour the paper remarks on (a process may URB-deliver m
// having seen only ACKs, never the MSG). The labels field is present only
// for Algorithm 2 and holds the label set the acker read from its AΘ
// module at the moment of (re-)acknowledging.
//
// Two further kinds realise the incremental labeled-ACK encoding of
// DESIGN.md §8 (a wire-level optimisation, not a new algorithm — every
// Algorithm 2 state transition they cause is one the full-set ACK above
// also causes):
//
//   - ACKΔ:   (ACK, m, tag, tag_ack, epoch, +labels, −labels)
//   - ACKREQ: (ACKREQ, m, tag, tag_ack)
//
// An acker's label set changes rarely, so resending it whole on every
// (re-)ACK is almost pure waste — at n=100 that is ~1.6 KB per ACK and
// O(n²) label traffic per tick. An ACKΔ instead carries the difference
// against the acker's previous ACK, under a per-(message, acker)
// monotonic epoch so receivers detect gaps; a gap (or any divergence) is
// repaired by broadcasting an ACKREQ naming the acker's tag_ack, which
// the acker answers with a snapshot ACKΔ (the Snapshot flag: +labels is
// the complete set at that epoch). Full-set ACKs remain valid wire
// frames, so mixed traffic keeps decoding.
//
// Messages are values; the codec gives them a deterministic, versioned
// binary form used by the live runtime, the trace files and the
// size-accounting metrics. On the frame path a message's body bytes are
// shared, never copied (see Message.Body).
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

	"anonurb/internal/codec"
	"anonurb/internal/ident"
)

// Kind discriminates the two protocol messages.
type Kind uint8

const (
	// KindMsg is the paper's MSG message: a payload under dissemination.
	KindMsg Kind = 1
	// KindAck is the paper's ACK message: a reception acknowledgement.
	KindAck Kind = 2
	// KindBeat is an ALIVE heartbeat carrying the sender's failure
	// detector label in Tag. Not part of the paper's algorithms — it is
	// the traffic of the heartbeat-based AΘ/AP* realisation
	// (fd.Heartbeat), multiplexed on the same lossy mesh.
	KindBeat Kind = 3
	// KindAckDelta is the incremental Algorithm 2 ACK (DESIGN.md §8): it
	// carries the acker's label-set change since its previous ACK for the
	// same message — additions in Labels, removals in DelLabels — under a
	// per-(message, acker) monotonic Epoch. With the Snapshot flag set it
	// instead carries the complete set at Epoch (removals empty), the
	// form that answers a KindAckReq resync.
	KindAckDelta Kind = 4
	// KindAckReq asks the acker owning AckTag to rebroadcast a snapshot
	// ACKΔ for (Body, Tag): the receiver of a delta stream sends it when
	// it detects an epoch gap. Like every message it is broadcast; only
	// the process whose tag_ack matches responds, so anonymity holds.
	KindAckReq Kind = 5
	// KindBeatDelta is the incremental heartbeat (DESIGN.md §10): the
	// detector-layer sibling of KindAckDelta. A beating host owns one
	// beat stream, identified by Ref (a 64-bit digest of its permanent
	// detector label, see BeatRef) and versioned by Epoch (bumped when
	// the announced label set changes). Three forms, discriminated by
	// Flags:
	//
	//   - snapshot (BeatFlagSnapshot): Labels is the complete announced
	//     set at Epoch — opens a stream and answers a KindBeatReq.
	//   - change delta (BeatFlagDelta): Labels/DelLabels are the labels
	//     announced/withdrawn since Epoch-1.
	//   - refresh (no flags): the announcement is unchanged at Epoch and
	//     its labels are alive — the steady-state form, and the point of
	//     the kind: it carries no label list and no 16-byte label at
	//     all, so the forever-repeating ALIVE traffic shrinks from the
	//     22-byte KindBeat frame to 15 bytes.
	KindBeatDelta Kind = 6
	// KindBeatReq asks the owner of beat stream Ref to rebroadcast a
	// snapshot BEATΔ: sent on an epoch gap, an unknown ref, or a ref two
	// streams collided on. Broadcast like everything else; only the
	// owner responds.
	KindBeatReq Kind = 7
	// KindSnapReq asks live peers for a durable-state snapshot (DESIGN.md
	// §13, the join protocol). With Ref zero it solicits a fresh transfer:
	// any peer may answer by opening one (its state snapshot, framed in
	// the internal/store container format, chunked as KindSnapChunk
	// frames). With Ref set it resumes transfer Ref from byte offset Off —
	// the joiner's repair path after chunk loss. Broadcast like every
	// message; anonymity holds because the request names no process, only
	// (optionally) a transfer.
	KindSnapReq Kind = 8
	// KindSnapChunk carries one contiguous slice of a snapshot transfer:
	// Body holds the chunk bytes at offset Off of a container of Total
	// bytes, under transfer reference Ref (a digest of the container, see
	// SnapRef) and a per-chunk CRC-32C in Sum that the decoder verifies —
	// a corrupt chunk is indistinguishable from a lost one, and the
	// resume protocol heals both.
	KindSnapChunk Kind = 9
)

// AckFlagSnapshot marks a KindAckDelta whose Labels field is the acker's
// complete label set at Epoch rather than a difference. Snapshot deltas
// carry no removals.
const AckFlagSnapshot uint8 = 1 << 0

// KindBeatDelta flags. Exactly one of Snapshot and Delta may be set; a
// frame with neither is a refresh and carries no label lists.
const (
	// BeatFlagSnapshot marks a BEATΔ whose Labels field is the complete
	// announced set at Epoch (DelLabels absent).
	BeatFlagSnapshot uint8 = 1 << 0
	// BeatFlagDelta marks a BEATΔ carrying the announcement's change
	// since Epoch-1: Labels added, DelLabels withdrawn.
	BeatFlagDelta uint8 = 1 << 1
)

// BeatEpochMax bounds BEATΔ epochs: they travel as 32 bits (beat
// announcements change approximately never, so a u64 would waste 4
// bytes of every refresh frame forever).
const BeatEpochMax = 1<<32 - 1

// MaxSnapshot bounds the Total length a snapshot transfer may declare
// (KindSnapChunk). Real snapshots here are kilobytes; the bound exists so
// a corrupt or hostile chunk cannot make a joiner preallocate gigabytes.
const MaxSnapshot = 1 << 26

// IsAck reports whether k belongs to the acknowledgement family — the
// full-set ACK, the delta ACK, or the resync request. The byte-accounting
// layers use it to attribute wire cost to the ACK path as a whole.
func (k Kind) IsAck() bool {
	return k == KindAck || k == KindAckDelta || k == KindAckReq
}

// IsBeat reports whether k belongs to the heartbeat family — the legacy
// full beat, the delta beat, or the beat resync request. The
// byte-accounting layers use it to attribute wire cost to the detector
// traffic as a whole.
func (k Kind) IsBeat() bool {
	return k == KindBeat || k == KindBeatDelta || k == KindBeatReq
}

// IsSnap reports whether k belongs to the snapshot-transfer family — the
// join protocol's request and chunk frames. The byte-accounting layers
// use it to attribute catch-up wire cost separately from the algorithm's
// MSG/ACK traffic.
func (k Kind) IsSnap() bool {
	return k == KindSnapReq || k == KindSnapChunk
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindMsg:
		return "MSG"
	case KindAck:
		return "ACK"
	case KindBeat:
		return "BEAT"
	case KindAckDelta:
		return "ACKΔ"
	case KindAckReq:
		return "ACKREQ"
	case KindBeatDelta:
		return "BEATΔ"
	case KindBeatReq:
		return "BEATREQ"
	case KindSnapReq:
		return "SNAPREQ"
	case KindSnapChunk:
		return "SNAPCHUNK"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MsgID identifies an application message as the paper does: by the pair
// (m, tag). Keying on the pair rather than the tag alone keeps the
// implementation faithful even under (astronomically unlikely) tag
// collisions.
//
// Body is stored as an immutable byte-string so that MsgID stays
// comparable (it keys every set in the algorithms). It carries the raw
// payload bytes verbatim — any bytes, including non-UTF-8 and the empty
// payload. Use Bytes to get the payload back as a byte slice.
type MsgID struct {
	Tag  ident.Tag
	Body string
}

// NewMsgID builds a MsgID from a payload byte slice. The bytes are copied
// (into the immutable Body string), so the caller may reuse body.
func NewMsgID(tag ident.Tag, body []byte) MsgID {
	return MsgID{Tag: tag, Body: string(body)}
}

// Bytes returns the payload as a fresh byte slice.
func (id MsgID) Bytes() []byte { return []byte(id.Body) }

// String renders a short display form.
func (id MsgID) String() string {
	b := id.Body
	if len(b) > 16 {
		b = b[:16] + "…"
	}
	return fmt.Sprintf("%s/%q", id.Tag, b)
}

// Message is one protocol message. The zero value is not a valid message.
type Message struct {
	Kind Kind
	// Body is the application payload m, as raw bytes (for KindSnapChunk,
	// the chunk). On the frame path it is never a private copy: a decoded
	// message borrows it from the received frame, and one built from a
	// MsgID shares the identity's string bytes (see sharedBody). It is
	// read-only outside this package, and whatever keeps it beyond the
	// call that received it copies it — through ID, as the algorithms'
	// message table does.
	Body []byte
	// Tag is the unique random tag the URB-broadcaster attached to m.
	Tag ident.Tag
	// AckTag is the acker's unique random tag for (m, tag). Meaningful
	// for KindAck and KindAckDelta (the sender's tag_ack) and for
	// KindAckReq (the tag_ack whose owner is asked to resync).
	AckTag ident.Tag
	// Labels is the acker's current AΘ label set (Algorithm 2 full-set
	// ACKs), or — for KindAckDelta — the labels added since the previous
	// epoch (the complete set when the Snapshot flag is set). nil for
	// Algorithm 1 ACKs and for all MSG messages.
	Labels []ident.Tag
	// DelLabels is the labels removed since the previous epoch
	// (KindAckDelta without the Snapshot flag only).
	DelLabels []ident.Tag
	// Epoch is the per-(message, acker) monotonic delta-stream position
	// (KindAckDelta; epochs start at 1, 0 is reserved) or the beat
	// stream's announcement version (KindBeatDelta; 32 bits on the wire,
	// same reservation).
	Epoch uint64
	// Flags carries KindAckDelta modifiers (AckFlagSnapshot) or
	// KindBeatDelta modifiers (BeatFlagSnapshot, BeatFlagDelta).
	Flags uint8
	// Ref is the beat stream reference (KindBeatDelta and KindBeatReq:
	// BeatRef of the beating host's permanent detector label) or the
	// snapshot transfer reference (KindSnapChunk, and KindSnapReq when
	// resuming: SnapRef of the container bytes; zero on a SNAPREQ means
	// "any transfer").
	Ref uint64
	// Off is the byte offset within a snapshot transfer: the position of
	// this chunk's first byte (KindSnapChunk) or the offset from which the
	// requester wants the transfer (re)sent (KindSnapReq).
	Off uint64
	// Total is the transfer's complete container length in bytes
	// (KindSnapChunk only), bounded by MaxSnapshot.
	Total uint64
	// Sum is the CRC-32C of Body (KindSnapChunk only), verified at decode
	// time so a corrupted chunk is dropped like a lost frame.
	Sum uint32
}

// ID returns the application message identity (m, tag). The body is
// copied into the identity's string, so an ID outlives the frame a
// decoded m borrows from: ID is how a retainer keeps a body.
func (m Message) ID() MsgID { return MsgID{Tag: m.Tag, Body: string(m.Body)} }

// sharedBody returns id's payload as a byte slice that aliases the
// identity's string bytes instead of copying them: every constructor of
// a body-bearing message goes through it, so a Task-1 tick re-sending
// the working set or the ACK answering a duplicate costs no body copy.
// The slice's capacity is clipped to its length, so an append onto it
// reallocates. Go strings are immutable and the bytes may live in
// read-only memory, which is why nothing outside this package may write
// through a Message's Body (urbvet's bodywrite analyzer rejects it): a
// write would change the identity of every map key sharing the bytes,
// or fault.
func sharedBody(id MsgID) []byte {
	if id.Body == "" {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(id.Body), len(id.Body))
}

// NewMsg builds a MSG message.
func NewMsg(id MsgID) Message {
	return Message{Kind: KindMsg, Body: sharedBody(id), Tag: id.Tag}
}

// NewAck builds an Algorithm 1 ACK message.
func NewAck(id MsgID, ackTag ident.Tag) Message {
	return Message{Kind: KindAck, Body: sharedBody(id), Tag: id.Tag, AckTag: ackTag}
}

// NewBeat builds an ALIVE heartbeat for the given failure detector
// label.
func NewBeat(label ident.Tag) Message {
	return Message{Kind: KindBeat, Tag: label}
}

// NewLabeledAck builds an Algorithm 2 ACK message carrying the acker's
// current label view. The label slice is copied.
func NewLabeledAck(id MsgID, ackTag ident.Tag, labels []ident.Tag) Message {
	return Message{
		Kind:   KindAck,
		Body:   sharedBody(id),
		Tag:    id.Tag,
		AckTag: ackTag,
		Labels: append([]ident.Tag(nil), labels...),
	}
}

// NewAckDelta builds an incremental Algorithm 2 ACK: adds/dels are the
// labels gained/lost since the acker's previous ACK for id (both slices
// are copied; either may be empty — an empty delta is the unchanged
// re-ACK). epoch must be >= 1 and exceed the previous ACK's epoch by
// exactly one when the set changed, or equal it for an unchanged re-ACK.
func NewAckDelta(id MsgID, ackTag ident.Tag, epoch uint64, adds, dels []ident.Tag) Message {
	return Message{
		Kind:      KindAckDelta,
		Body:      sharedBody(id),
		Tag:       id.Tag,
		AckTag:    ackTag,
		Epoch:     epoch,
		Labels:    append([]ident.Tag(nil), adds...),
		DelLabels: append([]ident.Tag(nil), dels...),
	}
}

// NewAckSnapshot builds a snapshot ACKΔ: labels is the acker's complete
// label set at epoch. It both opens a delta stream (the acker's first
// labeled ACK) and answers a KindAckReq resync.
func NewAckSnapshot(id MsgID, ackTag ident.Tag, epoch uint64, labels []ident.Tag) Message {
	return Message{
		Kind:   KindAckDelta,
		Body:   sharedBody(id),
		Tag:    id.Tag,
		AckTag: ackTag,
		Epoch:  epoch,
		Flags:  AckFlagSnapshot,
		Labels: append([]ident.Tag(nil), labels...),
	}
}

// NewAckResync builds the resync request for the delta stream of ackTag
// on message id.
func NewAckResync(id MsgID, ackTag ident.Tag) Message {
	return Message{Kind: KindAckReq, Body: sharedBody(id), Tag: id.Tag, AckTag: ackTag}
}

// BeatRef derives a beat stream's 64-bit wire reference from its owner's
// permanent detector label (FNV-1a over the label's canonical 16 bytes).
// The full label travels only in snapshots; refreshes carry the
// reference. Zero is reserved as "absent", so the astronomically
// unlikely zero digest maps to 1; genuine cross-label collisions are
// handled by receivers (a collided ref degrades to snapshot-only
// attribution, it never mis-attributes liveness).
func BeatRef(label ident.Tag) uint64 {
	// Inlined FNV-1a 64 over the 16 big-endian label bytes.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (label.Hi >> uint(shift) & 0xff)) * prime64
	}
	for shift := 56; shift >= 0; shift -= 8 {
		h = (h ^ (label.Lo >> uint(shift) & 0xff)) * prime64
	}
	if h == 0 {
		return 1
	}
	return h
}

// NewBeatSnapshot builds a snapshot BEATΔ: labels is the stream's
// complete announced set at epoch (copied). It opens the stream and
// answers a KindBeatReq.
func NewBeatSnapshot(ref uint64, epoch uint32, labels []ident.Tag) Message {
	return Message{
		Kind:   KindBeatDelta,
		Ref:    ref,
		Epoch:  uint64(epoch),
		Flags:  BeatFlagSnapshot,
		Labels: append([]ident.Tag(nil), labels...),
	}
}

// NewBeatChange builds a change-delta BEATΔ: adds/dels are the labels
// announced/withdrawn since epoch-1 (both copied).
func NewBeatChange(ref uint64, epoch uint32, adds, dels []ident.Tag) Message {
	return Message{
		Kind:      KindBeatDelta,
		Ref:       ref,
		Epoch:     uint64(epoch),
		Flags:     BeatFlagDelta,
		Labels:    append([]ident.Tag(nil), adds...),
		DelLabels: append([]ident.Tag(nil), dels...),
	}
}

// NewBeatRefresh builds the steady-state BEATΔ: the announcement is
// unchanged at epoch and its labels are alive. 15 bytes on the wire.
func NewBeatRefresh(ref uint64, epoch uint32) Message {
	return Message{Kind: KindBeatDelta, Ref: ref, Epoch: uint64(epoch)}
}

// NewBeatResync builds the resync request for beat stream ref.
func NewBeatResync(ref uint64) Message {
	return Message{Kind: KindBeatReq, Ref: ref}
}

// SnapRef derives a snapshot transfer's 64-bit wire reference from the
// container bytes being transferred (FNV-1a 64). Zero is reserved as
// "any transfer" in SNAPREQ frames, so the astronomically unlikely zero
// digest maps to 1. The reference pins a resumed transfer to one exact
// byte string: a donor that recompacted (and so would serve different
// bytes) simply no longer answers the old ref, and the joiner times out
// into a fresh request.
func SnapRef(container []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range container {
		h = (h ^ uint64(c)) * prime64
	}
	if h == 0 {
		return 1
	}
	return h
}

// NewSnapReq builds a snapshot transfer request: ref zero solicits a
// fresh transfer from any peer, ref nonzero resumes transfer ref from
// byte offset off.
func NewSnapReq(ref, off uint64) Message {
	return Message{Kind: KindSnapReq, Ref: ref, Off: off}
}

// NewSnapChunk builds one chunk of snapshot transfer ref: chunk is the
// container's bytes [off, off+len(chunk)) of total, copied; the per-chunk
// CRC-32C is computed here.
func NewSnapChunk(ref uint64, total, off uint64, chunk []byte) Message {
	return Message{
		Kind:  KindSnapChunk,
		Ref:   ref,
		Off:   off,
		Total: total,
		Sum:   codec.Checksum(chunk),
		Body:  append([]byte(nil), chunk...),
	}
}

// String renders a compact human-readable form for traces.
func (m Message) String() string {
	switch m.Kind {
	case KindMsg:
		return fmt.Sprintf("MSG(%s)", m.ID())
	case KindBeat:
		return fmt.Sprintf("BEAT(%s)", m.Tag)
	case KindAck:
		if m.Labels == nil {
			return fmt.Sprintf("ACK(%s ack=%s)", m.ID(), m.AckTag)
		}
		return fmt.Sprintf("ACK(%s ack=%s labels=%d)", m.ID(), m.AckTag, len(m.Labels))
	case KindAckDelta:
		if m.Flags&AckFlagSnapshot != 0 {
			return fmt.Sprintf("ACKΔ(%s ack=%s epoch=%d snapshot=%d)", m.ID(), m.AckTag, m.Epoch, len(m.Labels))
		}
		return fmt.Sprintf("ACKΔ(%s ack=%s epoch=%d +%d -%d)", m.ID(), m.AckTag, m.Epoch, len(m.Labels), len(m.DelLabels))
	case KindAckReq:
		return fmt.Sprintf("ACKREQ(%s ack=%s)", m.ID(), m.AckTag)
	case KindBeatDelta:
		switch {
		case m.Flags&BeatFlagSnapshot != 0:
			return fmt.Sprintf("BEATΔ(ref=%016x epoch=%d snapshot=%d)", m.Ref, m.Epoch, len(m.Labels))
		case m.Flags&BeatFlagDelta != 0:
			return fmt.Sprintf("BEATΔ(ref=%016x epoch=%d +%d -%d)", m.Ref, m.Epoch, len(m.Labels), len(m.DelLabels))
		default:
			return fmt.Sprintf("BEATΔ(ref=%016x epoch=%d)", m.Ref, m.Epoch)
		}
	case KindBeatReq:
		return fmt.Sprintf("BEATREQ(ref=%016x)", m.Ref)
	case KindSnapReq:
		if m.Ref == 0 {
			return "SNAPREQ(any)"
		}
		return fmt.Sprintf("SNAPREQ(ref=%016x off=%d)", m.Ref, m.Off)
	case KindSnapChunk:
		return fmt.Sprintf("SNAPCHUNK(ref=%016x %d+%d/%d)", m.Ref, m.Off, len(m.Body), m.Total)
	default:
		return fmt.Sprintf("?(%d)", m.Kind)
	}
}

// codec constants.
const (
	codecVersion = 1
	headerLen    = 2 // version, kind
	tagLen       = codec.TagLen
	// MaxBody bounds payload size accepted by the codec. It is sized so
	// that worst-case MSG frames — and labeled ACK frames for systems up
	// to ~250 processes — fit in one UDP datagram (the transport with
	// the smallest frame budget, 65507 bytes): a larger bound would let
	// a broadcast encode fine and then be unsendable on UDP forever,
	// silently breaking the fair-lossy liveness assumption. Still
	// generous for the workloads in this repository, and it keeps
	// pathological allocs bounded when decoding corrupt input.
	MaxBody = 60 << 10
	// MaxLabels bounds the label set size (n processes, so a few thousand
	// is far beyond any scenario here).
	MaxLabels = 1 << 16
)

// Codec errors.
var (
	ErrShort      = errors.New("wire: buffer too short")
	ErrVersion    = errors.New("wire: unknown codec version")
	ErrKind       = errors.New("wire: unknown message kind")
	ErrOversize   = errors.New("wire: field exceeds size bound")
	ErrTrailing   = errors.New("wire: trailing bytes after message")
	ErrZeroTag    = errors.New("wire: zero tag on wire")
	ErrZeroAckTag = errors.New("wire: zero ack tag on ACK")
	ErrZeroEpoch  = errors.New("wire: zero epoch on delta ACK")
	ErrBadFlags   = errors.New("wire: malformed delta ACK flags")
	ErrZeroRef    = errors.New("wire: zero beat stream ref")
	ErrChecksum   = errors.New("wire: snapshot chunk checksum mismatch")
	ErrSnapBounds = errors.New("wire: snapshot chunk outside declared bounds")
)

// EncodedSize returns the exact byte length Encode will produce. It is the
// quantity the metrics layer charges as "bytes on the wire".
//
//urb:hotpath
func (m Message) EncodedSize() int {
	// prefix is the layout shared by every tag-bearing kind; the
	// beat-family incremental kinds have their own compact layouts — no
	// body, no 16-byte tag (that omission is their entire point).
	prefix := headerLen + 4 + len(m.Body) + tagLen
	switch m.Kind {
	case KindMsg, KindBeat:
		return prefix
	case KindAck:
		return prefix + tagLen + 4 + tagLen*len(m.Labels)
	case KindAckDelta:
		return prefix + tagLen + 8 + 1 + 4 + tagLen*len(m.Labels) + 4 + tagLen*len(m.DelLabels)
	case KindAckReq:
		return prefix + tagLen
	case KindBeatDelta:
		n := headerLen + 1 + 4 + 8
		if m.Flags&BeatFlagSnapshot != 0 {
			n += 4 + tagLen*len(m.Labels)
		}
		if m.Flags&BeatFlagDelta != 0 {
			n += 4 + tagLen*len(m.Labels) + 4 + tagLen*len(m.DelLabels)
		}
		return n
	case KindBeatReq:
		return headerLen + 8
	case KindSnapReq:
		return headerLen + 8 + 8
	case KindSnapChunk:
		return headerLen + 8 + 8 + 8 + 4 + 4 + len(m.Body)
	}
	return prefix
}

// Encode appends the canonical binary form of m to dst and returns the
// extended slice.
//
// Layout (big endian):
//
//	version u8 | kind u8 | bodyLen u32 | body | tag 16B
//	[ ackTag 16B | labelCount u32 | labels 16B each ]   (ACK only)
//	[ ackTag 16B | epoch u64 | flags u8
//	  | addCount u32 | adds 16B each
//	  | delCount u32 | dels 16B each ]                  (ACKΔ only)
//	[ ackTag 16B ]                                      (ACKREQ only)
//
// The beat-family incremental kinds use their own compact layouts (no
// body, no tag):
//
//	version u8 | kind u8 | flags u8 | epoch u32 | ref u64
//	  [ addCount u32 | adds 16B each ]                  (BEATΔ snapshot)
//	  [ addCount u32 | adds 16B each
//	    | delCount u32 | dels 16B each ]                (BEATΔ change)
//	version u8 | kind u8 | ref u64                      (BEATREQ)
//
// as do the snapshot-transfer kinds (no body prefix, no tag):
//
//	version u8 | kind u8 | ref u64 | off u64            (SNAPREQ)
//	version u8 | kind u8 | ref u64 | total u64 | off u64
//	  | sum u32 | chunkLen u32 | chunk                  (SNAPCHUNK)
//
//urb:hotpath
func (m Message) Encode(dst []byte) []byte {
	dst = append(dst, codecVersion, byte(m.Kind))
	switch m.Kind {
	case KindBeatDelta:
		dst = append(dst, m.Flags)
		dst = binary.BigEndian.AppendUint32(dst, uint32(m.Epoch))
		dst = binary.BigEndian.AppendUint64(dst, m.Ref)
		if m.Flags&BeatFlagSnapshot != 0 {
			dst = codec.AppendTags(dst, m.Labels)
		}
		if m.Flags&BeatFlagDelta != 0 {
			dst = codec.AppendTags(dst, m.Labels)
			dst = codec.AppendTags(dst, m.DelLabels)
		}
		return dst
	case KindBeatReq:
		return binary.BigEndian.AppendUint64(dst, m.Ref)
	case KindSnapReq:
		dst = binary.BigEndian.AppendUint64(dst, m.Ref)
		return binary.BigEndian.AppendUint64(dst, m.Off)
	case KindSnapChunk:
		dst = binary.BigEndian.AppendUint64(dst, m.Ref)
		dst = binary.BigEndian.AppendUint64(dst, m.Total)
		dst = binary.BigEndian.AppendUint64(dst, m.Off)
		dst = binary.BigEndian.AppendUint32(dst, m.Sum)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Body)))
		return append(dst, m.Body...)
	case KindMsg, KindAck, KindBeat, KindAckDelta, KindAckReq:
		// Tag-bearing kinds share the bodyLen|body|tag prefix appended
		// below, then diverge in the second switch.
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Body)))
	dst = append(dst, m.Body...)
	dst = codec.AppendTag(dst, m.Tag)
	switch m.Kind {
	case KindMsg, KindBeat:
		// Prefix-only frames: nothing after the tag.
	case KindAck:
		dst = codec.AppendTag(dst, m.AckTag)
		dst = codec.AppendTags(dst, m.Labels)
	case KindAckDelta:
		dst = codec.AppendTag(dst, m.AckTag)
		dst = binary.BigEndian.AppendUint64(dst, m.Epoch)
		dst = append(dst, m.Flags)
		dst = codec.AppendTags(dst, m.Labels)
		dst = codec.AppendTags(dst, m.DelLabels)
	case KindAckReq:
		dst = codec.AppendTag(dst, m.AckTag)
	case KindBeatDelta, KindBeatReq, KindSnapReq, KindSnapChunk:
		// Encoded and returned by the first switch; unreachable here.
	}
	return dst
}

// Decode parses exactly one message from b, rejecting trailing bytes.
// Like DecodePrefix, the message's Body borrows b.
func Decode(b []byte) (Message, error) {
	m, rest, err := DecodePrefix(b)
	if err != nil {
		return Message{}, err
	}
	if len(rest) != 0 {
		return Message{}, ErrTrailing
	}
	return m, nil
}

// DecodePrefix parses one message from the front of b and returns the
// remainder, allowing streams of concatenated messages. The message's
// Body borrows b (capacity clipped, so an append onto it cannot reach
// the bytes behind it) and label lists are fresh: decoding a MSG, ACK,
// ACKREQ or label-free ACKΔ allocates nothing. b must therefore not
// change while the message is in use, which the transports guarantee by
// never reusing a frame they handed out.
func DecodePrefix(b []byte) (m Message, rest []byte, err error) {
	if rest, err = DecodeInto(&m, b); err != nil {
		return Message{}, nil, err
	}
	return m, rest, nil
}

// DecodeInto is DecodePrefix writing the message into *m, which it
// overwrites whole; on error *m holds no valid message. It is the form
// for a loop walking a frame: a Message is some 150 bytes, and returning
// one by value costs a copy per message, of which a duplicate-heavy
// frame decodes hundreds.
//
//urb:hotpath
func DecodeInto(m *Message, b []byte) ([]byte, error) {
	*m = Message{}
	r := codec.NewReader(b, &ErrShort)
	version, kind := r.U8(), Kind(r.U8())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, ErrVersion
	}
	m.Kind = kind
	switch kind {
	case KindMsg, KindAck, KindBeat, KindAckDelta, KindAckReq:
	case KindBeatDelta, KindBeatReq:
		return decodeBeat(m, r.Rest())
	case KindSnapReq, KindSnapChunk:
		return decodeSnap(m, r.Rest())
	default:
		return nil, ErrKind
	}
	m.Body = r.Bytes(r.Count(1, MaxBody, &ErrOversize))
	m.Tag = r.Tag()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.Tag.Zero() {
		return nil, ErrZeroTag
	}
	if kind == KindMsg || kind == KindBeat {
		return r.Rest(), nil
	}
	// All ACK forms carry the acker tag next.
	m.AckTag = r.Tag()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.AckTag.Zero() {
		return nil, ErrZeroAckTag
	}
	if kind == KindAckReq {
		return r.Rest(), nil
	}
	if kind == KindAckDelta {
		m.Epoch, m.Flags = r.U64(), r.U8()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.Epoch == 0 {
			return nil, ErrZeroEpoch
		}
		if m.Flags&^AckFlagSnapshot != 0 {
			return nil, ErrBadFlags
		}
	}
	// r.Tags, spelled out so that it inlines.
	m.Labels = codec.TagsOf(r.Bytes(r.Count(tagLen, MaxLabels, &ErrOversize) * tagLen))
	if kind == KindAckDelta {
		m.DelLabels = codec.TagsOf(r.Bytes(r.Count(tagLen, MaxLabels, &ErrOversize) * tagLen))
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// A snapshot is a complete set, not a difference: removals are
	// structurally meaningless there and canonical encoders never emit
	// them, so the decoder rejects the combination.
	if m.Flags&AckFlagSnapshot != 0 && len(m.DelLabels) != 0 {
		return nil, ErrBadFlags
	}
	return r.Rest(), nil
}

// decodeBeat parses the compact beat-family layouts; b starts right
// after the two header bytes.
func decodeBeat(m *Message, b []byte) ([]byte, error) {
	r := codec.NewReader(b, &ErrShort)
	if m.Kind == KindBeatReq {
		m.Ref = r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if m.Ref == 0 {
			return nil, ErrZeroRef
		}
		return r.Rest(), nil
	}
	m.Flags, m.Epoch, m.Ref = r.U8(), uint64(r.U32()), r.U64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if badBeatFlags(m.Flags) {
		return nil, ErrBadFlags
	}
	if m.Epoch == 0 {
		return nil, ErrZeroEpoch
	}
	if m.Ref == 0 {
		return nil, ErrZeroRef
	}
	if m.Flags != 0 {
		m.Labels = r.Tags(MaxLabels, &ErrOversize)
	}
	if m.Flags&BeatFlagDelta != 0 {
		m.DelLabels = r.Tags(MaxLabels, &ErrOversize)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return r.Rest(), nil
}

// badBeatFlags reports a BEATΔ flag byte no encoder writes: an unknown
// bit, or both forms at once.
func badBeatFlags(f uint8) bool {
	return f&^(BeatFlagSnapshot|BeatFlagDelta) != 0 || f == BeatFlagSnapshot|BeatFlagDelta
}

// decodeSnap parses the compact snapshot-transfer layouts; b starts
// right after the two header bytes.
func decodeSnap(m *Message, b []byte) ([]byte, error) {
	r := codec.NewReader(b, &ErrShort)
	if m.Kind == KindSnapReq {
		m.Ref, m.Off = r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return nil, err
		}
		// A fresh request (ref zero) names no transfer, so a nonzero
		// resume offset is structurally meaningless.
		if m.Ref == 0 && m.Off != 0 {
			return nil, ErrSnapBounds
		}
		return r.Rest(), nil
	}
	m.Ref, m.Total, m.Off, m.Sum = r.U64(), r.U64(), r.U64(), r.U32()
	chunkLen := r.U32()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if m.Ref == 0 {
		return nil, ErrZeroRef
	}
	if m.Total == 0 || m.Total > MaxSnapshot || chunkLen > MaxBody {
		return nil, ErrOversize
	}
	if chunkLen == 0 || uint64(chunkLen) > m.Total || m.Off > m.Total-uint64(chunkLen) {
		return nil, ErrSnapBounds
	}
	m.Body = r.Bytes(int(chunkLen))
	if err := r.Err(); err != nil {
		return nil, err
	}
	if codec.Checksum(m.Body) != m.Sum {
		return nil, ErrChecksum
	}
	return r.Rest(), nil
}

// Equal reports deep equality of two messages, including label multiset
// order (the codec preserves order, and ackers emit labels in their set's
// insertion order, so order equality is the right notion for round-trips).
func (m Message) Equal(o Message) bool {
	if m.Kind != o.Kind || !bytes.Equal(m.Body, o.Body) || m.Tag != o.Tag || m.AckTag != o.AckTag {
		return false
	}
	if m.Epoch != o.Epoch || m.Flags != o.Flags || m.Ref != o.Ref {
		return false
	}
	if m.Off != o.Off || m.Total != o.Total || m.Sum != o.Sum {
		return false
	}
	return slices.Equal(m.Labels, o.Labels) && slices.Equal(m.DelLabels, o.DelLabels)
}
