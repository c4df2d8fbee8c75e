package wire

import (
	"anonurb/internal/codec"
	"anonurb/internal/ident"
)

// FlowOf extracts the flow key of a broadcast tag: its Hi half. Nodes
// built with a flow-pinned tag source (ident.NewFlowSource) share one Hi
// across all their broadcasts, so the key groups a broadcaster's whole
// output; unpinned nodes degrade gracefully to one flow per message.
func FlowOf(t ident.Tag) uint64 { return t.Hi }

// PeekFlow scans the first encoded message in b without decoding it and
// returns its kind, its flow key, and its exact encoded size, so callers
// can split batch frames into per-message (or per-run) subslices with
// zero allocation and route each by flow. It is the admission stage's
// classifier (internal/admit): peeking costs a few length checks and two
// 8-byte loads where DecodePrefix would copy the body and label sets.
//
// The flow key is the broadcast Tag's Hi half for KindMsg and the whole
// ACK family (MSG retransmissions and every ACK form carry the original
// message's Tag, so a message and all traffic it induces share one key).
// Beat-family messages and the legacy KindBeat — detector traffic, not
// attributable to any broadcaster — report flow 0, which admission always
// admits.
//
// PeekFlow validates only what it needs to walk the frame: version,
// kind, and the declared lengths against len(b) and the codec bounds.
// It steps over the fields with the same codec.Reader DecodeInto reads
// them with, so the two apply the same length checks and bounds.
// It rejects the BEATΔ flags DecodeInto rejects (ErrBadFlags), since
// they decide which tag lists follow. A frame it accepts can still fail
// full DecodePrefix validation (zero tags, an ACKΔ's bad flags); that is
// the consumer's check. Other errors are the codec's (ErrShort,
// ErrVersion, ErrKind, &ErrOversize).
//
//urb:hotpath
func PeekFlow(b []byte) (kind Kind, flow uint64, size int, err error) {
	r := codec.NewReader(b, &ErrShort)
	version, kind := r.U8(), Kind(r.U8())
	if err := r.Err(); err != nil {
		return 0, 0, 0, err
	}
	if version != codecVersion {
		return 0, 0, 0, ErrVersion
	}
	// skipTags steps over one count-prefixed tag list.
	skipTags := func() { r.Skip(r.Count(tagLen, MaxLabels, &ErrOversize) * tagLen) }
	switch kind {
	case KindBeatReq:
		r.Skip(8) // ref
	case KindSnapReq:
		r.Skip(8 + 8) // ref, off
	case KindSnapChunk:
		// Snapshot transfers are membership traffic, not attributable to
		// any broadcaster: flow 0, which admission always admits.
		r.Skip(8 + 8 + 8 + 4) // ref, total, off, sum
		r.Skip(r.Count(1, MaxBody, &ErrOversize))
	case KindBeatDelta:
		flags := r.U8()
		r.Skip(4 + 8) // epoch, ref
		if r.Err() == nil && badBeatFlags(flags) {
			// The tag lists to skip depend on the flags: walking bad ones
			// would hand the caller a wrong split boundary.
			return 0, 0, 0, ErrBadFlags
		}
		if flags&BeatFlagSnapshot != 0 {
			skipTags()
		}
		if flags&BeatFlagDelta != 0 {
			skipTags()
			skipTags()
		}
	case KindMsg, KindAck, KindBeat, KindAckDelta, KindAckReq:
		r.Skip(r.Count(1, MaxBody, &ErrOversize))
		if hi := r.U64(); kind != KindBeat {
			// KindBeat's Tag is a detector label, not a broadcast tag;
			// its Hi half is no broadcaster's flow key.
			flow = hi
		}
		r.Skip(8)
		switch kind {
		case KindAck:
			r.Skip(tagLen) // ack tag
			skipTags()
		case KindAckDelta:
			r.Skip(tagLen + 8 + 1) // ack tag, epoch, flags
			skipTags()
			skipTags()
		case KindAckReq:
			r.Skip(tagLen) // ack tag
		case KindMsg, KindBeat, KindBeatDelta, KindBeatReq, KindSnapReq, KindSnapChunk:
			// Prefix-only frames, or not tag-bearing (handled above).
		}
	default:
		return 0, 0, 0, ErrKind
	}
	if err := r.Err(); err != nil {
		return 0, 0, 0, err
	}
	return kind, flow, len(b) - r.Len(), nil
}
