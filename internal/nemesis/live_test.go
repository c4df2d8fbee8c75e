package nemesis

import (
	"fmt"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/liverun"
	"anonurb/internal/urb"
)

// liveConfig builds the standard live campaign substrate: heartbeat
// hosts on a mildly lossy mesh at 200µs/unit. The trust timeout (800
// units) exceeds every partition window used in these tests, for the
// same reason as the sim campaigns (DESIGN.md §15).
func liveConfig(n int, seed uint64) liverun.Config {
	return liverun.Config{
		N: n,
		Factory: func(index int, tags *ident.Source, clock func() int64) urb.Process {
			return urb.NewHeartbeatHost(tags, 800, 1, clock, urb.Config{})
		},
		Link:      channel.Bernoulli{P: 0.05, D: channel.UniformDelay{Min: 1, Max: 3}},
		Unit:      200 * time.Microsecond,
		TickEvery: 5,
		Seed:      seed,
	}
}

// liveWorkload issues one broadcast per founder before the fault
// window and one per founder inside it.
func liveWorkload(n int) []LiveBroadcast {
	var bs []LiveBroadcast
	for p := 0; p < n; p++ {
		bs = append(bs, LiveBroadcast{At: 40 + int64(p), Proc: p,
			Body: []byte(fmt.Sprintf("pre-%d", p))})
		bs = append(bs, LiveBroadcast{At: 160 + int64(p), Proc: p,
			Body: []byte(fmt.Sprintf("mid-%d", p))})
	}
	return bs
}

// TestLiveCampaignSplitHeals runs real split campaigns against live
// goroutine nodes — {0} cut from {1,2}, and the split preset's two
// successive seams over five nodes — broadcasts on both sides, heals,
// and demands uniform agreement with zero re-deliveries.
func TestLiveCampaignSplitHeals(t *testing.T) {
	spec, err := Parse("name=live-split;split@100-400:0;loss@100-400:0.05;deadline=12000")
	if err != nil {
		t.Fatal(err)
	}
	preset, _ := Preset("split", 5)
	for _, tc := range []struct {
		name     string
		campaign Campaign
		n        int
		seed     uint64
	}{
		{"spec/n3", spec, 3, 11},
		{"preset/n5", preset, 5, 2015 + 104729},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunLive(LiveRun{
				Config:     liveConfig(tc.n, tc.seed),
				Campaign:   tc.campaign,
				Broadcasts: liveWorkload(tc.n),
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Audit.OK() {
				t.Fatalf("live split campaign failed:\n%s", res.Audit.Report())
			}
			if res.Audit.Survivors != tc.n || res.Audit.Redelivered != 0 {
				t.Fatalf("survivors %d (want %d), %d re-deliveries", res.Audit.Survivors, tc.n, res.Audit.Redelivered)
			}
			if res.Link.Sent == 0 {
				t.Fatal("mesh moved no frames")
			}
		})
	}
}

// TestLiveCampaignCrashRecover crashes a durable node mid-run, tears
// its WAL tail while it is down, and requires the recovered node to
// rejoin the agreement with no re-deliveries — the live mirror of the
// simulator's crashstorm cell.
func TestLiveCampaignCrashRecover(t *testing.T) {
	c, err := Parse("name=live-crash;crash@150+300:1;tornwal@200:1;loss@50-450:0.05;deadline=12000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLive(LiveRun{
		Config:     liveConfig(3, 23),
		Campaign:   c,
		Broadcasts: liveWorkload(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audit.OK() {
		t.Fatalf("live crash campaign failed:\n%s", res.Audit.Report())
	}
}

// TestLiveCampaignSnapCorrupt corrupts proc 1's snapshot while it is
// down. The first recovery attempt must be refused (corrupt snapshots
// fail loudly), the retry after restoration must succeed, and the
// cluster must still converge.
func TestLiveCampaignSnapCorrupt(t *testing.T) {
	c, err := Parse("name=live-snap;crash@150+300:1;snapcorrupt@200:1;deadline=12000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := liveConfig(3, 31)
	// The garbler can only strike a snapshot that exists: checkpoint
	// fast enough that proc 1 has one before its crash at 150 units.
	cfg.CheckpointEvery = 5 * time.Millisecond
	res, err := RunLive(LiveRun{
		Config:     cfg,
		Campaign:   c,
		Broadcasts: liveWorkload(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CorruptRejected) != 1 || res.CorruptRejected[0] != 1 {
		t.Fatalf("corrupt snapshot was not refused exactly once: %v", res.CorruptRejected)
	}
	if !res.Audit.OK() {
		t.Fatalf("live snapcorrupt campaign failed:\n%s", res.Audit.Report())
	}
}
