package nemesis

import (
	"strings"
	"testing"

	"anonurb/internal/channel"
	"anonurb/internal/harness"
	"anonurb/internal/workload"
)

// baseScenario builds the standard campaign substrate: 5 processes on
// a fair lossy mesh, 15 broadcasts spread over every founder before
// and during the fault windows. The heartbeat trust timeout exceeds
// every preset partition window — with a shorter timeout a side
// retires messages without the other side's acks and heals into
// permanent disagreement (that is a detector-tuning finding, not a
// harness bug; DESIGN.md §15).
func baseScenario(algo harness.Algo, seed uint64) harness.Scenario {
	return harness.Scenario{
		Name: "nemesis-base",
		N:    5,
		Algo: algo,
		Link: channel.Bernoulli{P: 0.1, D: channel.UniformDelay{Min: 1, Max: 5}},
		Workload: workload.MultiWriter{
			Writers: 5, PerWriter: 3, Start: 50, Interval: 100,
		},
		Seed:             seed,
		TickEvery:        10,
		HeartbeatTimeout: 800,
	}
}

func TestCampaignMatrixConverges(t *testing.T) {
	algos := map[string]harness.Algo{
		"majority":  harness.AlgoMajority,
		"heartbeat": harness.AlgoHeartbeat,
	}
	// Two workloads: seed 1 with three broadcasts per writer, and a
	// seed per preset (2015 + i·7919) with two.
	seeds := []struct {
		name      string
		seed      func(preset int) uint64
		perWriter int
	}{
		{"seed1", func(int) uint64 { return 1 }, 3},
		{"seed2015", func(i int) uint64 { return 2015 + uint64(i)*7919 }, 2},
	}
	for i, preset := range []string{"split", "asym", "crashstorm", "churnsplit"} {
		for name, algo := range algos {
			for _, s := range seeds {
				t.Run(preset+"/"+name+"/"+s.name, func(t *testing.T) {
					c, ok := Preset(preset, 5)
					if !ok {
						t.Fatalf("preset %q missing", preset)
					}
					sc := baseScenario(algo, s.seed(i))
					sc.Workload = workload.MultiWriter{Writers: 5, PerWriter: s.perWriter, Start: 50, Interval: 100}
					cfg, _ := sc.Build()
					res, err := RunSim(cfg, c)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Audit.OK() {
						t.Fatalf("campaign failed:\n%s", res.Audit.Report())
					}
					if res.Audit.HealLatency < 0 || res.Audit.HealLatency > c.HealDeadline {
						t.Fatalf("heal latency %d outside [0, %d]", res.Audit.HealLatency, c.HealDeadline)
					}
					if res.Audit.Redelivered != 0 {
						t.Fatalf("%d redeliveries", res.Audit.Redelivered)
					}
				})
			}
		}
	}
}

// TestBrokenCampaignNamesStage: the deliberately broken campaign (heal
// deadline 0) must fail, and its report must name the campaign, the
// stage each stalled message was born under, and the missing evidence.
func TestBrokenCampaignNamesStage(t *testing.T) {
	c, _ := Preset("broken", 5)
	cfg, _ := baseScenario(harness.AlgoMajority, 1).Build()
	res, err := RunSim(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Audit.OK() {
		t.Fatal("a zero heal deadline must not pass")
	}
	rep := res.Audit.Report()
	if !strings.Contains(rep, `campaign "broken" FAILED`) {
		t.Fatalf("report does not name the campaign:\n%s", rep)
	}
	if !strings.Contains(rep, "split@100") && !strings.Contains(rep, "crash@200") {
		t.Fatalf("report does not name a campaign stage:\n%s", rep)
	}
	if !strings.Contains(rep, "stalled on") {
		t.Fatalf("report does not identify stalled messages:\n%s", rep)
	}
	if len(res.Audit.Stalls) == 0 {
		t.Fatal("no stalls recorded")
	}
	for _, s := range res.Audit.Stalls {
		if s.Stage == "" {
			t.Fatal("stall without stage attribution")
		}
	}
}

// TestCampaignDeterminism: the whole pipeline — overlays, merged fault
// schedule, store faults, audit — is a pure function of the seed.
func TestCampaignDeterminism(t *testing.T) {
	run := func() *SimResult {
		c, _ := Preset("crashstorm", 5)
		cfg, _ := baseScenario(harness.AlgoHeartbeat, 7).Build()
		res, err := RunSim(cfg, c)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Result.EndTime != b.Result.EndTime || a.Result.Net != b.Result.Net {
		t.Fatalf("runs diverged: end %d vs %d, net %+v vs %+v",
			a.Result.EndTime, b.Result.EndTime, a.Result.Net, b.Result.Net)
	}
	if a.Audit.HealLatency != b.Audit.HealLatency || len(a.Audit.Stalls) != len(b.Audit.Stalls) {
		t.Fatalf("audits diverged: %+v vs %+v", a.Audit, b.Audit)
	}
}

// TestCampaignMutatorsOnWire: a campaign layering duplication,
// reordering and bit flips over the whole run still converges, and the
// network counters prove the mutations actually happened.
func TestCampaignMutatorsOnWire(t *testing.T) {
	c, err := Parse("name=mutate;dup@50-600:0.3/2;reorder@50-600:0.3/20;flip@50-600:0.05;deadline=6000")
	if err != nil {
		t.Fatal(err)
	}
	cfg, _ := baseScenario(harness.AlgoMajority, 3).Build()
	res, err := RunSim(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Audit.OK() {
		t.Fatalf("mutation campaign failed:\n%s", res.Audit.Report())
	}
	if res.Result.Net.Duplicated == 0 {
		t.Fatal("no frame was ever duplicated")
	}
	if res.Audit.Redelivered != 0 {
		t.Fatal("duplicated frames caused re-deliveries")
	}
}

// FuzzCampaignSim: any spec Validate accepts runs in the simulator to
// a result or an error, never a panic — every schedule the simulator
// would refuse is Validate's to reject. Runs are kept small: five
// heartbeat founders, at most three joiners, at most three duplicates
// per frame, a horizon of at most 4,000 units.
func FuzzCampaignSim(f *testing.F) {
	f.Add("name=split;split@100-400:0,1;split@500-800:0,4;loss@100-800:0.05;deadline=2000")
	f.Add("name=storm;crash@150+250:1;crash@200+300:2;crash@300+250:3;tornwal@150:1;loss@100-600:0.05;deadline=2000")
	f.Add("name=churn;split@100-500:0,1;leave@150:1;join@200:5;crash@250+150:4;deadline=2000")
	f.Add("name=mutate;dup@50-600:0.3/2;reorder@50-600:0.3/20;flip@50-600:0.05;deadline=2000")
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := Parse(spec)
		if err != nil || c.Validate(5, false) != nil || c.HealTime()+c.HealDeadline > 4000 {
			return
		}
		joiners := 0
		for _, s := range c.Stages {
			switch {
			case s.Kind == StageJoin:
				joiners += len(s.Procs)
			case s.Kind == StageDup && s.Window > 3:
				return // every frame fans out into up to Window copies
			}
		}
		if joiners > 3 {
			return
		}
		sc := baseScenario(harness.AlgoHeartbeat, 1)
		sc.Workload = workload.MultiWriter{Writers: 5, PerWriter: 1, Start: 50, Interval: 100}
		cfg, _ := sc.Build()
		if res, err := RunSim(cfg, c); res == nil && err == nil {
			t.Fatal("RunSim returned neither a result nor an error")
		}
	})
}
