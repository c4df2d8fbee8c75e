package nemesis

import (
	"strings"
	"testing"
)

func TestParseFullSpec(t *testing.T) {
	c, err := Parse("name=x;split@100-400:0,1;oneway@450-500:1,2>0;crash@200+250:3;" +
		"join@300:5;leave@150:4;loss@0-400:0.1;dup@0-400:0.2/3;reorder@0-400:0.3/40;" +
		"flip@0-400:0.05;tornwal@200:3;deadline=1234")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "x" || c.HealDeadline != 1234 {
		t.Fatalf("header lost: %+v", c)
	}
	if len(c.Stages) != 10 {
		t.Fatalf("got %d stages", len(c.Stages))
	}
	byKind := map[StageKind]Stage{}
	for _, s := range c.Stages {
		byKind[s.Kind] = s
	}
	if s := byKind[StageSplit]; s.From != 100 || s.Until != 400 || len(s.A) != 2 {
		t.Fatalf("split parsed wrong: %+v", s)
	}
	if s := byKind[StageOneWay]; len(s.Src) != 2 || len(s.Dst) != 1 || s.Dst[0] != 0 {
		t.Fatalf("oneway parsed wrong: %+v", s)
	}
	if s := byKind[StageCrash]; s.From != 200 || s.RecoverAfter != 250 || s.Procs[0] != 3 {
		t.Fatalf("crash parsed wrong: %+v", s)
	}
	if s := byKind[StageDup]; s.P != 0.2 || s.Window != 3 {
		t.Fatalf("dup parsed wrong: %+v", s)
	}
	if s := byKind[StageReorder]; s.P != 0.3 || s.Window != 40 {
		t.Fatalf("reorder parsed wrong: %+v", s)
	}
	if err := c.Validate(5, false); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	// Heal time: the latest fault lift is the oneway window end at 500.
	if got := c.HealTime(); got != 500 {
		t.Fatalf("heal time %d, want 500", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                           // no stages
		"warp@100-200:0",             // unknown kind
		"split@100-200",              // missing procs
		"split@abc-200:0",            // bad time
		"loss@0-100:nope",            // bad probability
		"oneway@0-100:1,2",           // missing '>'
		"crash@100+x:1",              // bad recover offset
		"deadline=soon;loss@0-1:0.1", // bad deadline
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("spec %q: expected parse error", spec)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	crashRecover1 := Stage{Kind: StageCrash, From: 10, RecoverAfter: 20, Procs: []int{1}}
	cases := []struct {
		name string
		c    Campaign
		live bool
		want string // a phrase of the rule the error must name
	}{
		{"empty window", Campaign{Name: "x", Stages: []Stage{{Kind: StageLoss, From: 100, Until: 100, P: 0.1}}}, false, "is empty"},
		{"split of everyone", Campaign{Name: "x", Stages: []Stage{{Kind: StageSplit, From: 0, Until: 10, A: []int{0, 1, 2}}}}, false, "proper subset"},
		{"bad probability", Campaign{Name: "x", Stages: []Stage{{Kind: StageFlip, From: 0, Until: 10, P: 1.5}}}, false, "outside [0,1]"},
		{"snapcorrupt in sim", Campaign{Name: "x", Stages: []Stage{
			crashRecover1,
			{Kind: StageSnapCorrupt, From: 15, Procs: []int{1}}}}, false, "live-only"},
		{"tornwal without recovery", Campaign{Name: "x", Stages: []Stage{{Kind: StageTornWAL, From: 10, Procs: []int{1}}}}, false, "no crash+recover stage"},
		{"negative deadline", Campaign{Name: "x", HealDeadline: -1, Stages: []Stage{{Kind: StageLoss, From: 0, Until: 10, P: 0.1}}}, false, "negative heal deadline"},

		// The schedule rules. Each row is a campaign the parent Validate
		// accepted and one driver then played differently or panicked on.
		// "split@100-400:7" over n=3: RunSim grew N and made 3-7 founders.
		{"undeclared proc", mustParse(t, "name=z;split@100-400:7;deadline=3000"), false, "neither a founder"},
		{"undeclared oneway proc", mustParse(t, "name=z;oneway@100-400:1>4;deadline=3000"), false, "neither a founder"},
		// "crash@5+10:1;crash@1000:1": the simulator kept the last crash
		// only and panicked on the orphaned recovery.
		{"two crash stages", mustParse(t, "name=x;crash@5+10:1;crash@1000:1;deadline=100"), false, "at most one crash stage"},
		{"crash listed twice", mustParse(t, "name=x;crash@5+10:1,1;deadline=100"), false, "at most one crash stage"},
		{"two leave stages", mustParse(t, "name=x;leave@100:1;leave@300:1;deadline=100"), false, "at most one leave stage"},
		{"join of a founder", mustParse(t, "name=j;join@100:2;deadline=100"), false, "fresh slot 3"},
		{"join skips a slot", mustParse(t, "name=j;join@100:4;deadline=100"), false, "fresh slot 3"},
		{"joins out of time order", mustParse(t, "name=j;join@200:3;join@100:4;deadline=100"), false, "fresh slot 3"},
		{"join at time 0", mustParse(t, "name=j;join@0:3;deadline=100"), false, "a join starts after 0"},
		// "join@200:5;leave@100:5": the simulator panicked on a leave
		// before the join.
		{"leave before join", mustParse(t, "name=y;join@200:3;leave@100:3;deadline=100"), false, "not after its join"},
		{"crash at join", mustParse(t, "name=y;join@200:3;crash@200+50:3;deadline=100"), false, "not after its join"},
		// "join@100:5;crash@110+1:5" (FuzzCampaignSim): the simulator
		// panicked restoring the joiner's adopted baseline.
		{"joiner recovers", mustParse(t, "name=j;join@100:3;crash@110+1:3;deadline=0"), false, "must crash for good"},
		{"recovery overflows", mustParse(t, "name=o;crash@9223372036854775800+100:1"), false, "negative or overflows"},
		{"leave before recovery", mustParse(t, "name=y;crash@100+200:1;leave@250:1;deadline=100"), false, "not after its recovery"},
		// "crash@100+50:1;tornwal@300:1": the simulator tore the recovery
		// at 150, the live runner tore after it, so never.
		{"tornwal after recovery", mustParse(t, "name=w;crash@100+50:1;tornwal@300:1;deadline=3000"), false, "after proc 1's recovery"},
		{"snapcorrupt after recovery", Campaign{Name: "x", Stages: []Stage{
			crashRecover1,
			{Kind: StageSnapCorrupt, From: 31, Procs: []int{1}}}}, true, "after proc 1's recovery"},
	}
	for _, tc := range cases {
		err := tc.c.Validate(3, tc.live)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	// The same snapcorrupt campaign is legal on a live cluster, and the
	// schedule rules admit what both drivers play alike: joiners in slot
	// order (equal times included), a joiner crashing for good and
	// leaving after its join, a store fault at its target's recovery.
	for _, tc := range []struct {
		c    Campaign
		live bool
	}{
		{Campaign{Name: "x", Stages: []Stage{crashRecover1, {Kind: StageSnapCorrupt, From: 15, Procs: []int{1}}}}, true},
		{mustParse(t, "name=j;join@100:4,3;join@150:5;crash@200:3;leave@300:3;split@100-200:0,4;deadline=100"), false},
		{mustParse(t, "name=w;crash@100+50:1;tornwal@150:1;deadline=100"), false},
	} {
		if err := tc.c.Validate(3, tc.live); err != nil {
			t.Errorf("campaign %+v rejected: %v", tc.c, err)
		}
	}
}

func mustParse(t *testing.T, spec string) Campaign {
	t.Helper()
	c, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		for n := 3; n <= 9; n++ {
			c, ok := Preset(name, n)
			if !ok {
				t.Fatalf("preset %q missing", name)
			}
			if err := c.Validate(n, false); err != nil {
				t.Fatalf("preset %q invalid at n=%d: %v", name, n, err)
			}
			if c.HealTime() <= 0 {
				t.Fatalf("preset %q has no faults", name)
			}
		}
	}
	if c, _ := Preset("broken", 5); c.HealDeadline != 0 {
		t.Fatal("broken preset must demand convergence at the heal instant")
	}
	if _, ok := Preset("nope", 5); ok {
		t.Fatal("unknown preset resolved")
	}
	// Resolve falls back to the spec language.
	if c, err := Resolve("loss@0-100:0.5", 5); err != nil || len(c.Stages) != 1 {
		t.Fatalf("Resolve spec fallback: %+v, %v", c, err)
	}
}

func TestBlame(t *testing.T) {
	c, err := Parse("name=b;split@100-400:0,1;crash@200+250:3;deadline=100")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		t    int64
		want string
	}{
		{50, "heal"},
		{150, "split@100"},
		{250, "crash@200+split@100"},
		{420, "crash@200"},
		{460, "heal"},
	} {
		if got := c.Blame(tc.t); got != tc.want {
			t.Errorf("Blame(%d) = %q, want %q", tc.t, got, tc.want)
		}
	}
}
