package nemesis

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"anonurb/internal/channel"
	"anonurb/internal/ident"
	"anonurb/internal/liverun"
	"anonurb/internal/sim"
	"anonurb/internal/urb"
)

// liveLink is the mildly lossy link both substrates below share.
var liveLink = channel.Bernoulli{P: 0.05, D: channel.UniformDelay{Min: 1, Max: 3}}

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
		Link:      liveLink,
		Unit:      200 * time.Microsecond,
		TickEvery: 5,
		Seed:      seed,
	}
}

// simTwin is liveConfig's substrate in the simulator, carrying the
// workload.
func simTwin(n int, seed uint64, bs []sim.ScheduledBroadcast) sim.Config {
	return sim.Config{
		N: n,
		Factory: func(env sim.Env) urb.Process {
			return urb.NewHeartbeatHost(env.Tags, 800, 1, env.Now, urb.Config{})
		},
		Link:       liveLink,
		TickEvery:  5,
		Seed:       seed,
		Broadcasts: bs,
	}
}

// liveWorkload issues one broadcast per founder before the fault
// window and one per founder inside it: the mid-window ones can only
// cross a split after heal.
func liveWorkload(n int) []sim.ScheduledBroadcast {
	var bs []sim.ScheduledBroadcast
	for p := 0; p < n; p++ {
		bs = append(bs, sim.ScheduledBroadcast{At: 40 + int64(p), Proc: p,
			Body: []byte(fmt.Sprintf("pre-%d", p))})
		bs = append(bs, sim.ScheduledBroadcast{At: 160 + int64(p), Proc: p,
			Body: []byte(fmt.Sprintf("mid-%d", p))})
	}
	return bs
}

// TestLiveCampaigns runs each campaign against live goroutine nodes —
// splits that heal (one seam over three nodes, a 2/3 cut and the split
// preset's two successive seams over five), a durable node crashed with
// its WAL tail torn, and a snapshot corrupted while its node is down —
// and demands uniform agreement among every node with zero
// re-deliveries. The snapcorrupt row must also see the first recovery
// refused (corrupt snapshots fail loudly) and the retry succeed. The
// rows the simulator can run play the same spec and workload under
// RunSim too: both drivers execute one merged schedule.
func TestLiveCampaigns(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string // a preset name or a spec (Resolve)
		n    int
		seed uint64
		// checkpoint is the durable nodes' cadence (0: liverun default).
		checkpoint time.Duration
		rejected   []int // CorruptRejected wanted
		sim        bool  // also run under RunSim
	}{
		{name: "split/n3", spec: "name=live-split;split@100-400:0;loss@100-400:0.05;deadline=12000",
			n: 3, seed: 11, sim: true},
		{name: "split-2-3/n5", spec: "name=liverun-split;split@100-400:0,1;deadline=12000",
			n: 5, seed: 42, sim: true},
		{name: "split-preset/n5", spec: "split", n: 5, seed: 2015 + 104729, sim: true},
		{name: "crash-tornwal/n3", spec: "name=live-crash;crash@150+300:1;tornwal@200:1;loss@50-450:0.05;deadline=12000",
			n: 3, seed: 23, sim: true},
		// The garbler can only strike a snapshot that exists: checkpoint
		// fast enough that proc 1 has one before its crash at 150 units.
		{name: "snapcorrupt/n3", spec: "name=live-snap;crash@150+300:1;snapcorrupt@200:1;deadline=12000",
			n: 3, seed: 31, checkpoint: 5 * time.Millisecond, rejected: []int{1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Resolve(tc.spec, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			cfg := liveConfig(tc.n, tc.seed)
			cfg.CheckpointEvery = tc.checkpoint
			res, err := RunLive(LiveRun{Config: cfg, Campaign: c, Broadcasts: liveWorkload(tc.n)})
			if err != nil {
				t.Fatal(err)
			}
			checkCampaign(t, "live", res.Audit, tc.n)
			if res.Link.Sent == 0 {
				t.Fatal("mesh moved no frames")
			}
			if fmt.Sprint(res.CorruptRejected) != fmt.Sprint(tc.rejected) {
				t.Fatalf("corrupt snapshots refused for %v, want %v", res.CorruptRejected, tc.rejected)
			}
			if !tc.sim {
				return
			}
			sres, err := RunSim(simTwin(tc.n, tc.seed, liveWorkload(tc.n)), c)
			if err != nil {
				t.Fatal(err)
			}
			checkCampaign(t, "sim", sres.Audit, tc.n)
		})
	}
}

// checkCampaign requires a passing audit over all n processes.
func checkCampaign(t *testing.T, driver string, a Audit, n int) {
	t.Helper()
	if !a.OK() {
		t.Fatalf("%s campaign failed:\n%s", driver, a.Report())
	}
	if a.Survivors != n || a.Redelivered != 0 {
		t.Fatalf("%s: survivors %d (want %d), %d re-deliveries", driver, a.Survivors, n, a.Redelivered)
	}
}

// TestRunnersReject: both drivers refuse, before anything runs, a
// campaign or workload the merged schedule cannot hold.
func TestRunnersReject(t *testing.T) {
	late := mustParse(t, "name=late;join@200:3;deadline=1000")
	for _, tc := range []struct {
		name    string
		c       Campaign
		b       sim.ScheduledBroadcast
		want    string
		simOnly bool // the campaign is legal live
	}{
		{"before join", late, sim.ScheduledBroadcast{At: 100, Proc: 3}, "not after its join at 200", false},
		{"at join", late, sim.ScheduledBroadcast{At: 200, Proc: 3}, "not after its join at 200", false},
		{"beyond horizon", late, sim.ScheduledBroadcast{At: 1500, Proc: 0}, "beyond the campaign horizon 1200", false},
		{"no such proc", late, sim.ScheduledBroadcast{At: 300, Proc: 4}, "outside its 4 processes", false},
		{"snapcorrupt in sim", mustParse(t, "name=s;crash@10+20:1;snapcorrupt@15:1"),
			sim.ScheduledBroadcast{At: 50, Proc: 0}, "live-only", true},
	} {
		bs := []sim.ScheduledBroadcast{tc.b}
		_, err := RunSim(simTwin(3, 1, bs), tc.c)
		errs := []error{err}
		if !tc.simOnly {
			_, err = RunLive(LiveRun{Config: liveConfig(3, 1), Campaign: tc.c, Broadcasts: bs})
			errs = append(errs, err)
		}
		for _, err := range errs {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
			}
		}
	}
}
