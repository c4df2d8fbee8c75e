package main

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// urbsimArgsEnv, when set, turns the test binary into urbsim itself:
// TestMain runs main() on the space-separated flags it carries. The
// golden test re-executes its own binary this way, so the digests below
// go through the exact flag parsing, scenario assembly and exit paths
// the command line does.
const urbsimArgsEnv = "URBSIM_GOLDEN_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(urbsimArgsEnv); ok {
		os.Args = append([]string{"urbsim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenDigests pins the delivery digest of five command lines,
// four recorded on the commit before the retirement index became a queue
// (37c30a0). The digest covers every process's ordered (time, message)
// delivery sequence, so a change that claims "same behaviour" — an
// optimisation, a refactor — proves it by leaving these untouched; a
// change that means to alter behaviour re-records them and says why.
// The exit status is pinned with it: the crashstorm line's convergence
// audit already fails at 37c30a0 (-crashes 1 stacked on the campaign's
// own crash stages), which is part of the recorded behaviour.
func TestGoldenDigests(t *testing.T) {
	digestLine := regexp.MustCompile(`(?m)^digest   : ([0-9a-f]{16})$`)
	for _, tc := range []struct {
		args   string
		digest string
		exit   int
	}{
		// Oracle detector with adversarial pre-GST noise: D4 purges and
		// view shifts every noise period.
		{"-algo quiescent -msgs 40 -crashes 2 -noise adversarial -gst 400 -seed 3", "1b746539fa0547da", 0},
		// Heartbeat stack under crash-recover storms with torn WALs:
		// Restore, ApplyWAL and Rejoin.
		{"-algo heartbeat -msgs 60 -crashes 1 -seed 7 -nemesis crashstorm", "bbd9cf3d670e96ee", 1},
		// Churn: snapshot transfer, Adopt, a leave.
		{"-algo heartbeat -msgs 30 -seed 7 -join 3@900 -leave 1@1400", "5e25bbe55b85c4a3", 0},
		// Long history under 30% loss: retirement at scale.
		{"-algo quiescent -msgs 200 -n 7 -crashes 3 -noise benign -gst 900 -seed 11 -loss 0.3", "dd2aa73d1d3ee0a0", 0},
		// A join whose first donor (p1) crashes mid-transfer (61440 of
		// 65836 bytes in) under 40% loss: stall, Reset, re-solicit, a
		// second donor (p4, 66412 bytes), then deliveries by the joiner.
		// Re-recorded when retirement began freeing claim state: snapshots
		// shrank about threefold, and the former join@9100 donor state
		// (29352 bytes) fit one 61440-byte chunk, so the join moved to
		// t=20300 of an 800-message run to keep the transfer two chunks
		// long. Traffic 28115196 bytes.
		{"-algo heartbeat -n 5 -msgs 800 -loss 0.4 -seed 13 -nemesis name=donorcrash;join@20300:5;crash@20305:1,2,3;deadline=8000", "7ba2f5f7a258e7c9", 0},
	} {
		t.Run(tc.args, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), urbsimArgsEnv+"="+tc.args)
			out, err := cmd.CombinedOutput()
			if cmd.ProcessState == nil {
				t.Fatalf("urbsim %s did not run: %v", tc.args, err)
			}
			if got := cmd.ProcessState.ExitCode(); got != tc.exit {
				t.Fatalf("urbsim %s: exit status %d, golden %d\n%s", tc.args, got, tc.exit, out)
			}
			m := digestLine.FindSubmatch(out)
			if m == nil {
				t.Fatalf("urbsim %s printed no digest line:\n%s", tc.args, out)
			}
			if got := string(m[1]); got != tc.digest {
				t.Fatalf("urbsim %s: digest %s, golden %s", tc.args, got, tc.digest)
			}
		})
	}
}
