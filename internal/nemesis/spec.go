package nemesis

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Parse builds a Campaign from the compact spec language urbsim
// -nemesis accepts. A spec is a
// semicolon-separated list of clauses:
//
//	name=<ident>              campaign name (defaults to "custom")
//	deadline=<units>          heal deadline (defaults to 5000)
//	<kind>@<from>[-<until>][+<recover>][:<args>]
//
// Stage kinds and their args:
//
//	split@F-U:0,1             symmetric partition, side A = {0,1}
//	oneway@F-U:1,2>0          one-way cut, frames 1,2 → 0 dropped
//	crash@F+R:1,2             crash procs at F, recover R units later
//	join@F:5                  procs join (snapshot solicit) at F
//	leave@F:0                 procs leave at F
//	loss@F-U:0.2              extra Bernoulli loss
//	dup@F-U:0.3/2             duplicate frames, ≤2 extra copies
//	reorder@F-U:0.3/40        extra delay ≤40 units
//	flip@F-U:0.05             bit flips (FlipGate-gated → loss only)
//	tornwal@F:1               tear WAL tail, manifests at recovery
//	snapcorrupt@F:2           corrupt stored snapshot (live only)
//
// Example — a split that heals into a second split, with background
// loss:
//
//	name=double;split@100-400:0,1;split@500-800:0,2;loss@100-800:0.05;deadline=6000
func Parse(spec string) (Campaign, error) {
	c := Campaign{Name: "custom", HealDeadline: 5000}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		switch {
		case strings.HasPrefix(clause, "name="):
			c.Name = strings.TrimPrefix(clause, "name=")
		case strings.HasPrefix(clause, "deadline="):
			d, err := strconv.ParseInt(strings.TrimPrefix(clause, "deadline="), 10, 64)
			if err != nil {
				return Campaign{}, fmt.Errorf("nemesis: bad deadline in %q: %v", clause, err)
			}
			c.HealDeadline = d
		default:
			st, err := parseStage(clause)
			if err != nil {
				return Campaign{}, err
			}
			c.Stages = append(c.Stages, st)
		}
	}
	if len(c.Stages) == 0 {
		return Campaign{}, fmt.Errorf("nemesis: spec %q declares no stages", spec)
	}
	return c, nil
}

// parseStage parses one "<kind>@<from>[-<until>][+<recover>][:<args>]".
func parseStage(clause string) (Stage, error) {
	bad := func(format string, a ...any) (Stage, error) {
		return Stage{}, fmt.Errorf("nemesis: stage %q: %s", clause, fmt.Sprintf(format, a...))
	}
	kindStr, rest, ok := strings.Cut(clause, "@")
	if !ok {
		return bad("missing '@<from>'")
	}
	st := Stage{Kind: StageKind(slices.Index(kindNames[:], kindStr))}
	if st.Kind < 0 {
		return bad("unknown kind %q", kindStr)
	}

	timing, args, _ := strings.Cut(rest, ":")
	if recov, after, ok := cutLast(timing, "+"); ok {
		timing = recov
		r, err := strconv.ParseInt(after, 10, 64)
		if err != nil {
			return bad("bad recover offset %q", after)
		}
		st.RecoverAfter = r
	}
	fromStr, untilStr, hasUntil := strings.Cut(timing, "-")
	from, err := strconv.ParseInt(fromStr, 10, 64)
	if err != nil {
		return bad("bad start time %q", fromStr)
	}
	st.From = from
	if hasUntil {
		until, err := strconv.ParseInt(untilStr, 10, 64)
		if err != nil {
			return bad("bad end time %q", untilStr)
		}
		st.Until = until
	}

	switch st.Kind {
	case StageSplit:
		if st.A, err = parseProcs(args); err != nil {
			return bad("%v", err)
		}
	case StageOneWay:
		srcStr, dstStr, ok := strings.Cut(args, ">")
		if !ok {
			return bad("one-way cut needs '<src procs>><dst procs>'")
		}
		if st.Src, err = parseProcs(srcStr); err != nil {
			return bad("%v", err)
		}
		if st.Dst, err = parseProcs(dstStr); err != nil {
			return bad("%v", err)
		}
	case StageCrash, StageJoin, StageLeave, StageTornWAL, StageSnapCorrupt:
		if st.Procs, err = parseProcs(args); err != nil {
			return bad("%v", err)
		}
	case StageLoss, StageDup, StageReorder, StageFlip:
		pStr, wStr, hasW := strings.Cut(args, "/")
		if st.P, err = strconv.ParseFloat(pStr, 64); err != nil {
			return bad("bad probability %q", pStr)
		}
		if hasW {
			if st.Window, err = strconv.ParseInt(wStr, 10, 64); err != nil {
				return bad("bad window %q", wStr)
			}
		} else if st.Kind == StageReorder {
			st.Window = 50
		}
	}
	st.Name = fmt.Sprintf("%s@%d", st.Kind, st.From)
	return st, nil
}

// cutLast cuts s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// parseProcs parses a comma-separated process list.
func parseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty process list")
	}
	var procs []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p < 0 {
			return nil, fmt.Errorf("bad process index %q", f)
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// Preset returns a built-in campaign for a base cluster of n
// processes, or false when the name is unknown. These are the four
// campaigns TestCampaignMatrixConverges gates under both stacks plus
// the deliberately broken one demonstrating the failure report
// (TestBrokenCampaignNamesStage):
//
//	split       symmetric partition that heals and re-splits along a
//	            different seam, background loss throughout
//	asym        asymmetric one-way cuts: first proc 0 is deaf (its
//	            frames arrive but nothing reaches it), then mute
//	crashstorm  overlapping crash-recover storm with a torn WAL tail
//	            and background loss; at its peak a majority is down
//	            (over three founders, all of them)
//	churnsplit  a join solicited mid-partition on the majority side
//	            while a potential donor crashes mid-transfer and a
//	            minority proc leaves
//	broken      the split campaign with HealDeadline 0 — convergence
//	            at the heal instant is impossible, so the auditor must
//	            produce its stage-named failure report
func Preset(name string, n int) (Campaign, bool) {
	minority := (n - 1) / 2
	if minority < 1 {
		minority = 1
	}
	sideA := procRange(0, minority)
	// A different seam for the re-split: proc 0 plus the last founder.
	seam2 := fmt.Sprintf("0,%d", n-1)
	others := procRange(1, n)
	var spec string
	switch name {
	case "split":
		spec = fmt.Sprintf(
			"name=split;split@100-400:%s;split@500-800:%s;loss@100-800:0.05;deadline=6000",
			sideA, seam2)
	case "asym":
		spec = fmt.Sprintf(
			"name=asym;oneway@100-400:%s>0;oneway@500-800:0>%s;loss@100-800:0.05;deadline=6000",
			others, others)
	case "crashstorm":
		// Over three founders the third crash wraps to proc 0.
		spec = fmt.Sprintf("name=crashstorm;crash@150+250:1;crash@200+300:2;crash@300+250:%d;"+
			"tornwal@150:1;loss@100-600:0.05;deadline=6000", 3%n)
	case "churnsplit":
		spec = fmt.Sprintf(
			"name=churnsplit;split@100-500:%s;leave@150:1;join@200:%d;crash@250+150:%d;deadline=8000",
			sideA, n, n-1)
	case "broken":
		spec = fmt.Sprintf(
			"name=broken;split@100-400:%s;crash@200+250:%d;deadline=0",
			sideA, n-1)
	default:
		return Campaign{}, false
	}
	c, err := Parse(spec)
	if err != nil {
		panic(fmt.Sprintf("nemesis: bad preset %q: %v", name, err))
	}
	return c, true
}

// PresetNames lists the built-in campaigns in matrix order.
func PresetNames() []string {
	return []string{"split", "asym", "crashstorm", "churnsplit", "broken"}
}

// Resolve returns the preset campaign named by spec if one exists, and
// otherwise parses spec as the stage language.
func Resolve(spec string, n int) (Campaign, error) {
	if c, ok := Preset(spec, n); ok {
		return c, nil
	}
	return Parse(spec)
}

// procRange renders the processes lo..hi-1 as a spec process list.
func procRange(lo, hi int) string {
	var parts []string
	for p := lo; p < hi; p++ {
		parts = append(parts, strconv.Itoa(p))
	}
	return strings.Join(parts, ",")
}
