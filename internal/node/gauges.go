package node

import "strconv"

// Gauges renders what the node's accessors return in the name→value
// form obs.WritePrometheus serves: frame, message and per-class byte
// counters, store, recovery and join figures, inbox overflows and
// admission counters where the node has them, and the algorithm's set
// sizes (urb.Stats). It reads the same counters the accessors read, so
// it costs the hot path nothing. The set sizes come from Stats: they are
// left out before Start, read from the final snapshot once the node has
// stopped, and fetched through the node goroutine while it runs, so a
// call waits while the node is held up by a full Deliveries queue.
func (n *Node) Gauges() map[string]float64 {
	sf, rf, bad := n.FrameStats()
	sm, rm := n.MessageStats()
	msg, ack, beat, snap, other := n.ByteStats()
	st := n.StoreStats()
	recSnap, recWAL := n.RecoveryStats()
	g := map[string]float64{
		"urb_sent_frames_total":        float64(sf),
		"urb_recv_frames_total":        float64(rf),
		"urb_bad_frames_total":         float64(bad),
		"urb_sent_msgs_total":          float64(sm),
		"urb_recv_msgs_total":          float64(rm),
		"urb_sent_bytes_total":         float64(msg + ack + beat + snap + other),
		"urb_sent_msg_bytes_total":     float64(msg),
		"urb_sent_ack_bytes_total":     float64(ack),
		"urb_sent_beat_bytes_total":    float64(beat),
		"urb_sent_snap_bytes_total":    float64(snap),
		"urb_sent_other_bytes_total":   float64(other),
		"urb_checkpoints_total":        float64(st.Checkpoints),
		"urb_checkpoint_bytes_total":   float64(st.CheckpointBytes),
		"urb_wal_appends_total":        float64(st.WALAppends),
		"urb_wal_bytes_total":          float64(st.WALBytes),
		"urb_store_failed":             0,
		"urb_recovered_snapshot_bytes": float64(recSnap),
		"urb_recovered_wal_records":    float64(recWAL),
		"urb_joined_bytes":             float64(n.JoinedBytes()),
	}
	if st.Err != nil {
		g["urb_store_failed"] = 1
	}
	if o, ok := n.InboxOverflows(); ok {
		g["urb_inbox_overflows_total"] = float64(o)
	}
	if a, ok := n.AdmitStats(); ok {
		g["urb_admit_admitted_msgs_total"] = float64(a.AdmittedMsgs)
		g["urb_admit_admitted_bytes_total"] = float64(a.AdmittedBytes)
		g["urb_admit_demoted_msgs_total"] = float64(a.DemotedMsgs)
		g["urb_admit_demoted_bytes_total"] = float64(a.DemotedBytes)
		g["urb_admit_high_drops_total"] = float64(a.HighDrops)
		g["urb_admit_low_drops_total"] = float64(a.LowDrops)
		g["urb_admit_split_frames_total"] = float64(a.SplitFrames)
		g["urb_admit_demotions_total"] = float64(a.Demotions)
		g["urb_admit_evictions_total"] = float64(a.Evictions)
	}
	if s, err := n.Stats(); err == nil {
		g["urb_msg_set"] = float64(s.MsgSet)
		g["urb_my_acks"] = float64(s.MyAcks)
		g["urb_ack_entries"] = float64(s.AckEntries)
		g["urb_deliveries_total"] = float64(s.Delivered)
		g["urb_retired_total"] = float64(s.Retired)
		g["urb_wire_sent_total"] = float64(s.WireSent)
		g["urb_ack_labels"] = float64(s.AckLabels)
		g["urb_ack_label_storage"] = float64(s.AckLabelStorage)
		g["urb_compacted_msgs"] = float64(s.CompactedMsgs)
	}
	return g
}

// LabeledGauges merges the Gauges of every node under a {node="i"}
// label, i the node's index in nodes; nil entries are skipped.
func LabeledGauges(nodes []*Node) map[string]float64 {
	out := make(map[string]float64)
	for i, n := range nodes {
		if n == nil {
			continue
		}
		label := `{node="` + strconv.Itoa(i) + `"}`
		for k, v := range n.Gauges() {
			out[k+label] = v
		}
	}
	return out
}
