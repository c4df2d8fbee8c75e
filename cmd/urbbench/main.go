// Command urbbench regenerates the paper suite: every table (T1-T6) and
// figure (F1-F8) listed in DESIGN.md §4, run on the deterministic
// simulator and printed as aligned text (default) or CSV. The output of
// a full run is what EXPERIMENTS.md records.
//
// Usage:
//
//	urbbench [-quick] [-csv] [-seed N] [-only T1,F2,...]
//
// Performance is measured by benchmark/ (BENCHMARK.json); the live
// correctness gates are go tests beside the code they guard.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"anonurb/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run the reduced sweeps (CI sizes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	seed := flag.Uint64("seed", 2015, "base seed for every experiment (2015: the paper's year)")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. T1,F2); empty = all")
	flag.Parse()

	if flag.NArg() > 0 {
		usage("unexpected arguments %q", flag.Args())
	}
	exps, err := selectExperiments(*only)
	if err != nil {
		usage("%v", err)
	}
	params := harness.Params{Seed: *seed, Quick: *quick}
	for _, exp := range exps {
		start := time.Now()
		table := exp.Gen(params)
		if *csv {
			fmt.Printf("# %s\n%s\n", table.Title, table.CSV())
		} else {
			fmt.Println(table.Render())
			fmt.Printf("(%s generated in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		}
	}
}

// usage reports a command-line error and exits 2.
func usage(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "urbbench: "+format+"\n", a...)
	fmt.Fprintln(os.Stderr, "usage: urbbench [-quick] [-csv] [-seed N] [-only T1,F2,...]")
	os.Exit(2)
}

// selectExperiments resolves -only against the registry. Ids match in
// any case; an unknown or repeated id is an error naming it, so a typo
// fails loudly instead of quietly shrinking the run. Empty selects the
// whole suite. The result keeps the registry's presentation order.
func selectExperiments(only string) ([]harness.Experiment, error) {
	all := harness.AllExperiments()
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	known := make(map[string]bool, len(all))
	ids := make([]string, len(all))
	for i, e := range all {
		known[e.ID] = true
		ids[i] = e.ID
	}
	picked := make(map[string]bool)
	for _, raw := range strings.Split(only, ",") {
		id := strings.ToUpper(strings.TrimSpace(raw))
		if !known[id] {
			return nil, fmt.Errorf("unknown experiment %q (known: %s)", raw, strings.Join(ids, ","))
		}
		if picked[id] {
			return nil, fmt.Errorf("experiment %q listed twice", id)
		}
		picked[id] = true
	}
	var out []harness.Experiment
	for _, e := range all {
		if picked[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}
