//go:build linux

// Command benchmark is the repository's end-to-end and per-layer
// benchmark: five workloads on live clusters, measured untraced for the
// end-to-end metrics and with timing decorators for the per-layer ones.
// BENCHMARK.json at the repository root declares the workloads, the
// metrics, their units and their regression bounds; README.md in this
// directory explains them.
//
//	go run ./benchmark -seed S              every workload, untraced
//	go run ./benchmark -seed S -trace       ... and traced, with span files
//	go run ./benchmark -repeat K            K sets, run-to-run spread against the bounds
//	bash benchmark/run.sh -workload W -seed S -seconds N -trace 0|1
//	                                        one run, one result line (what a harness calls)
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"
)

// manifestPath is BENCHMARK.json, relative to the repository root the
// benchmark is run from.
const manifestPath = "BENCHMARK.json"

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// manifest is the part of BENCHMARK.json the benchmark reads: it is the
// one place metric names, units and bounds are written down, and the
// code refuses to print a metric it does not declare.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &man, nil
}

// metricValue is one measured metric as printed.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declare attaches units to measured values. It fails when the values
// and the declarations are not the same set of names, or a value is not
// a finite number.
func declare(values map[string]float64, decls []metricDecl) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, manifestPath)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in %s", name, manifestPath)
		}
	}
	return out, nil
}

// resultLine is the last line a single run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment describes where a result was measured.
type environment struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// PinnedCPU is the one processor the run was restricted to, -1 when
	// it was not (see pinToOneCPU).
	PinnedCPU int    `json:"pinned_cpu"`
	Kernel    string `json:"kernel"`
	// StoreFS is the filesystem the durable workload's stores are on.
	StoreFS string `json:"store_fs"`
}

// headerLine is the line a single run prints before its result: the
// environment, the schedule's sizes and whether the run may be used.
type headerLine struct {
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Seconds     float64     `json:"seconds"`
	Traced      bool        `json:"traced"`
	Env         environment `json:"env"`
	Nodes       int         `json:"nodes"`
	RatePerS    float64     `json:"rate_per_s"`
	Broadcasts  int         `json:"broadcasts"`
	Deliveries  int         `json:"deliveries"`
	LatencyN    int         `json:"latency_samples"`
	SetupRounds int         `json:"setup_rounds"`
	// BuildUS is what a set-up round spent building and starting the
	// cluster, before the settling pause: the median round's, in µs.
	BuildUS float64 `json:"build_us"`
	WallS   float64 `json:"wall_s"`
	// RestartMS is restart_ms (see restartDecl), on the workload that
	// restarts a node.
	RestartMS float64 `json:"restart_ms,omitempty"`
	// CPUShare is the part of the machine's processors the process kept
	// busy from the first broadcast to quiescence; the rates are chosen
	// to keep it under a half.
	CPUShare float64 `json:"cpu_share"`
	// Valid is false when the run measured the sandbox, not the program
	// (Invalid says why): its numbers must not be used.
	Valid      bool     `json:"valid"`
	Invalid    []string `json:"invalid,omitempty"`
	Violations []string `json:"violations,omitempty"`
	SpanFile   string   `json:"span_file,omitempty"`
}

func describeEnvironment(storeDir string) environment {
	env := environment{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		PinnedCPU:  -1,
		Kernel:     "unknown",
		StoreFS:    "unknown",
	}
	// Pinned, the runtime sees one processor; the header wants the
	// machine's. Unpinned, the variable is unset and the defaults stand.
	_, _ = fmt.Sscanf(os.Getenv(pinnedEnv), "%d/%d", &env.PinnedCPU, &env.NumCPU)
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	var fs syscall.Statfs_t
	if err := syscall.Statfs(storeDir, &fs); err == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x58465342: "xfs",
			0x9123683E: "btrfs", 0x794C7630: "overlayfs", 0x6969: "nfs"}
		env.StoreFS = names[int64(fs.Type)]
		if env.StoreFS == "" {
			env.StoreFS = fmt.Sprintf("0x%x", fs.Type)
		}
	}
	return env
}

// runOnce executes one workload in this process and returns the two
// lines it prints.
func runOnce(man *manifest, w *workload, opt runOptions) (headerLine, resultLine, error) {
	begin := time.Now()
	env := describeEnvironment(opt.outDir)
	m, err := run(w, opt)
	if err != nil {
		return headerLine{}, resultLine{}, err
	}
	head := headerLine{
		Workload: w.name, Seed: opt.seed, Seconds: opt.seconds, Traced: opt.traced, Env: env,
		Nodes: w.n, RatePerS: w.rate, Broadcasts: len(m.led.broadcasts), Deliveries: m.deliveries,
		LatencyN: len(m.latencies()), SetupRounds: len(m.setups), BuildUS: us(percentile(m.builds, 50)),
		Invalid: m.invalid(), RestartMS: m.restartMS(),
		CPUShare: float64(m.cpu) / float64(m.quiet-m.start) / float64(runtime.GOMAXPROCS(0)),
	}
	head.Valid = len(head.Invalid) == 0
	for i, v := range m.ver.violations {
		if i == 10 {
			head.Violations = append(head.Violations, fmt.Sprintf("... and %d more", len(m.ver.violations)-10))
			break
		}
		head.Violations = append(head.Violations, v.String())
	}
	res := resultLine{Correct: len(m.ver.violations) == 0, Attempted: m.ver.attempted, Failed: m.ver.failed}
	if opt.traced {
		res.Metrics, err = declare(m.perLayer(), man.PerLayer)
		if err == nil && opt.spanFile != "" {
			head.SpanFile = opt.spanFile
			err = writeSpans(opt.spanFile, m.c.recs)
		}
	} else {
		res.Metrics, err = declare(m.endToEnd(), man.EndToEnd)
	}
	head.WallS = time.Since(begin).Seconds()
	return head, res, err
}

// childRun is one single-workload child process's two output lines.
type childRun struct {
	Header headerLine `json:"run"`
	Result resultLine `json:"result"`
}

// spawn runs one workload in a child process, so that every run starts
// with a fresh heap and collector state.
func spawn(w *workload, opt runOptions) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	args := []string{"-workload", w.name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
		"-out", opt.outDir, fmt.Sprintf("-trace=%t", opt.traced)}
	if opt.spanFile != "" {
		args = append(args, "-spans", opt.spanFile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childRun{}, fmt.Errorf("%s: %w", w.name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return childRun{}, fmt.Errorf("%s: child printed %d lines, want a header and a result", w.name, len(lines))
	}
	var run childRun
	if err := json.Unmarshal(lines[0], &run.Header); err != nil {
		return childRun{}, fmt.Errorf("%s: header line: %w", w.name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &run.Result); err != nil {
		return childRun{}, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return run, nil
}

// workloadReport is one workload's part of a full report.
type workloadReport struct {
	Name     string    `json:"name"`
	Why      string    `json:"why"`
	Untraced childRun  `json:"untraced"`
	Traced   *childRun `json:"traced,omitempty"`
}

// errRunFailed marks a report that holds an incorrect or invalid run.
var errRunFailed = errors.New("a run failed its output check or is invalid")

// runAll runs every workload in a child process of its own,
// untraced and, when traced is set, traced as well, and prints one JSON
// report.
func runAll(opt runOptions) error {
	var reports []workloadReport
	failed := false
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "benchmark: %s untraced...\n", w.name)
		plain := opt
		plain.traced, plain.spanFile = false, ""
		rep := workloadReport{Name: w.name, Why: w.why}
		var err error
		if rep.Untraced, err = spawn(w, plain); err != nil {
			return err
		}
		failed = failed || !rep.Untraced.Result.Correct || !rep.Untraced.Header.Valid
		if opt.traced {
			fmt.Fprintf(os.Stderr, "benchmark: %s traced...\n", w.name)
			traced := opt
			traced.spanFile = filepath.Join(opt.outDir, "spans-"+w.name+".jsonl")
			run, err := spawn(w, traced)
			if err != nil {
				return err
			}
			// With both runs at hand the tracing overhead is the measured
			// one, not the stand-alone estimate from the span count.
			plainCPU := rep.Untraced.Result.Metrics["cpu_us_per_delivery"].Value
			tracedCPU := run.Result.Metrics["driver.traced_cpu_us_per_delivery"].Value
			overhead := run.Result.Metrics["driver.trace_overhead_share"]
			overhead.Value = ratio(tracedCPU, plainCPU) - 1
			run.Result.Metrics["driver.trace_overhead_share"] = overhead
			rep.Traced = &run
			failed = failed || !run.Result.Correct
		}
		reports = append(reports, rep)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"seed": opt.seed, "seconds": opt.seconds, "workloads": reports}); err != nil {
		return err
	}
	if failed {
		return errRunFailed
	}
	return nil
}

// errSpread marks a repeat whose run-to-run spread exceeds a bound.
var errSpread = errors.New("run-to-run spread exceeds a bound")

// restartDecl is the one end-to-end metric BENCHMARK.json cannot hold,
// because its end_to_end metrics must exist on every workload: the time
// without service around a restart — from the moment the victim had
// stopped to the delivery, at every process, of the first broadcast due
// after it; store load, restore, WAL replay, rejoin and catch-up — as the
// mean over the workload's restarts. The untraced run's header carries it
// and -repeat holds it against this bound.
var restartDecl = metricDecl{Name: "restart_ms", Unit: "ms", Better: "lower", Bound: 0.10}

// repeat runs k untraced sets, set i on seed+i, and prints for every
// end-to-end metric and workload the median, the quartiles and the spread
// beside the metric's bound. The spread that is held against the bound is
// the interquartile distance as a share of the median, which is what the
// benchmark's acceptance rule is stated in; the full range, which grows
// with k, is printed beside it. An invalid run is named and left out.
func repeat(man *manifest, opt runOptions, k int) error {
	if k < 2 {
		return fmt.Errorf("-repeat %d: a spread needs at least two sets", k)
	}
	values := make(map[string]map[string][]float64) // workload -> metric -> one value per valid run
	for _, w := range workloads {
		values[w.name] = make(map[string][]float64)
	}
	for set := 0; set < k; set++ {
		for _, w := range workloads {
			o := opt
			o.seed, o.traced, o.spanFile = opt.seed+uint64(set), false, ""
			fmt.Fprintf(os.Stderr, "benchmark: set %d/%d %s seed %d...\n", set+1, k, w.name, o.seed)
			run, err := spawn(w, o)
			if err != nil {
				return err
			}
			if !run.Result.Correct {
				return fmt.Errorf("%s seed %d: %w: %v", w.name, o.seed, errRunFailed, run.Header.Violations)
			}
			if !run.Header.Valid {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d left out, invalid: %v\n", w.name, o.seed, run.Header.Invalid)
				continue
			}
			for name, v := range run.Result.Metrics {
				values[w.name][name] = append(values[w.name][name], v.Value)
			}
			if run.Header.RestartMS > 0 {
				values[w.name][restartDecl.Name] = append(values[w.name][restartDecl.Name], run.Header.RestartMS)
			}
		}
	}
	// The raw values go beside the stores and span files, for whoever
	// wants more than the quartiles.
	raw, err := json.MarshalIndent(values, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(opt.outDir, fmt.Sprintf("repeat-seed%d.json", opt.seed)), raw, 0o644); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tmedian\tq1\tq3\tiqr/median\trange/median\tbound\t")
	var over []string
	for _, w := range workloads {
		decls := man.EndToEnd
		if len(w.restarts) > 0 {
			decls = append(decls[:len(decls):len(decls)], restartDecl)
		}
		for _, d := range decls {
			xs := values[w.name][d.Name]
			if len(xs) < 2 {
				return fmt.Errorf("%s: %d valid runs of %d, a spread needs two", w.name, len(xs), k)
			}
			sort.Float64s(xs)
			q1, med, q3 := quartiles(xs)
			iqr, rng := ratio(q3-q1, med), ratio(xs[len(xs)-1]-xs[0], med)
			mark := ""
			if iqr > d.Bound {
				mark = "OVER"
				over = append(over, w.name+"/"+d.Name)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.4f\t%.4f\t%.2f\t%s\n",
				w.name, d.Name, d.Unit, len(xs), med, q1, q3, iqr, rng, d.Bound, mark)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("%w: %s", errSpread, strings.Join(over, ", "))
	}
	return nil
}

func main() {
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: running unpinned, expect CPU and tail latency to vary by a tenth between runs:", err)
	}
	// A harness passes the trace switch as "--trace 0" or "--trace 1";
	// fold the value into the flag so that a plain -trace works too.
	args := os.Args[1:]
	for i := 0; i+1 < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && (args[i+1] == "0" || args[i+1] == "1") {
			args = append(append(args[:i:i], "-trace="+args[i+1]), args[i+2:]...)
			break
		}
	}
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	name := fs.String("workload", "", "run this one workload in this process and print one result line")
	seed := fs.Uint64("seed", 1, "seed of tag streams, link randomness, tick phases and payloads")
	seconds := fs.Float64("seconds", 0, "schedule length in seconds (default: run_seconds of "+manifestPath+")")
	traced := fs.Bool("trace", false, "install the timing decorators and report the per-layer metrics")
	spans := fs.String("spans", "", "with -workload and -trace: write the spans to this file")
	k := fs.Int("repeat", 0, "run this many sets, each on its own seed, and report the run-to-run spread")
	out := fs.String("out", ".bench_out", "directory for stores and span files")
	fs.Parse(args)

	if err := realMain(*name, *seed, *seconds, *traced, *spans, *k, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed uint64, seconds float64, traced bool, spans string, k int, out string) error {
	man, err := loadManifest(manifestPath)
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if seconds <= 0 {
		seconds = float64(man.RunSeconds)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	opt := runOptions{seed: seed, seconds: seconds, traced: traced, outDir: out, spanFile: spans}

	if name != "" {
		w := workloadByName(name)
		if w == nil {
			return fmt.Errorf("unknown workload %q", name)
		}
		// Stores go to a directory of this process's own, so that runs
		// sharing -out do not collide.
		opt.outDir, err = os.MkdirTemp(out, "run-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(opt.outDir)
		head, res, err := runOnce(man, w, opt)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(head); err != nil {
			return err
		}
		if err := enc.Encode(res); err != nil {
			return err
		}
		for _, why := range head.Invalid {
			fmt.Fprintf(os.Stderr, "benchmark: %s: INVALID RUN: %s\n", w.name, why)
		}
		if !res.Correct {
			return fmt.Errorf("%s: %w: %v", w.name, errRunFailed, head.Violations)
		}
		return nil
	}

	if k != 0 {
		return repeat(man, opt, k)
	}
	return runAll(opt)
}
