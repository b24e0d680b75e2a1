// Command benchmark is the repository's one repeatable benchmark: five
// closed-loop session workloads, eight end-to-end metrics, a per-layer
// ladder with a span trace, and an A/A gate. README.md in this directory
// describes the run shape and every number; BENCHMARK.json at the root of
// the repository is the contract it is run under.
//
//	benchmark -workload thread_mem -seed 1            # one run, end-to-end metrics
//	benchmark -workload thread_mem -seed 1 -trace 1   # traced run, per-layer metrics, trace.json
//	benchmark -all                                    # one run of every workload
//	benchmark -aa 5                                   # A/A gate over every workload
//	benchmark -smoke                                  # every workload, both passes, seconds not minutes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/activefile"
	"repro/activefile/sentinel"
	"repro/benchmark/measure"
)

func main() {
	// Process strategies re-execute this binary as the sentinel.
	sentinel.MaybeChild()
	maybePingPongChild()
	maybeIdleSpinner()
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	all      bool
	aa       int
	smoke    bool
	dir      string
	spec     string

	place placement // where runOnce put the run's processes
}

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: thread_mem, procctl_pipe, procctl_shm, lane_sessions, fleet_cached")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of the measured steady phase; churn and warm-up are a quarter of it each")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass: per-layer metrics and trace.json instead of end-to-end metrics")
	fs.BoolVar(&o.all, "all", false, "run every workload once and print one table")
	fs.IntVar(&o.aa, "aa", 0, "A/A gate: two interleaved sets of this many runs per workload; writes benchmark/AA.json")
	fs.BoolVar(&o.smoke, "smoke", false, "run every workload, untraced and traced, in about a second each")
	fs.StringVar(&o.dir, "dir", ".bench_build", "directory for scratch files and trace.json; created if missing")
	fs.StringVar(&o.spec, "spec", "BENCHMARK.json", "the contract: metric names, units, directions and bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	spec, err := loadSpec(o.spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	switch {
	case o.aa > 0:
		return runAA(o, spec)
	case o.all:
		return runAll(o, spec)
	}
	// From here on runs happen in this process: put it in its place.
	o.place = pinDriver()
	if o.smoke {
		return runSmoke(o, spec)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		return 2
	}
	res, err := runOnce(w, o, spec)
	printResult(res, spec, o.trace == 1, err != nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOnce performs one run of one workload in a fresh scratch directory
// under o.dir and removes the directory afterwards.
func runOnce(w workload, o options, spec *benchSpec) (result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return result{}, err
	}
	scratch, err := os.MkdirTemp(o.dir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(scratch)
	// Anything the stack itself puts in a temporary directory lands in the
	// scratch directory too, for this process and for the sentinels it spawns.
	if abs, err := filepath.Abs(scratch); err == nil {
		os.Setenv("TMPDIR", abs)
	}
	if w.strategy == activefile.StrategyThread {
		// Nothing of this workload yields the CPU to a peer; see pin.go.
		stop, spinning, err := startIdleSpinner()
		if err != nil {
			return result{}, err
		}
		defer stop()
		o.place.Spinner = spinning
	}
	env := captureEnvironment(scratch)
	env.Placement = &o.place
	ph := phasesFor(o.seconds, o.trace == 1)
	fmt.Printf("# %s seed=%d env=%s\n", w.name, o.seed, mustJSON(env))
	fmt.Printf("# phases: %d set-ups, churn %v, warm-up %v, steady %v in %d segments, traced %v\n",
		ph.setups, ph.churn, ph.warmup, ph.steady, ph.segments, ph.traced)
	var res result
	switch {
	case o.trace == 1:
		res, err = runTraced(w, o, ph, scratch)
	case o.seconds < 4: // a smoke run's numbers mean nothing; it neither waits for the host nor remembers it
		res, err = runWorkload(w, o.seed, ph, scratch, measure.NewHost(), nil, nil)
	default:
		memory, host := loadHostMemory(o.dir), measure.NewHost()
		wait := &hostWait{usual: memory.usual(), left: memory.allowance()}
		host.Usual = wait.usual
		wait.settle(nil)
		res, err = runWorkload(w, o.seed, ph, scratch, host, wait, nil)
		fmt.Printf("# host: read %.0f ns for most of this run; earlier runs %.0f ns (0: too few yet); waited %v for that\n",
			host.State(), wait.usual, wait.waited.Round(time.Millisecond))
		if err == nil {
			err = memory.remember(o.dir, host.State(), wait.waited)
		}
	}
	if err == nil {
		// A run that cannot report every metric of the contract, each a
		// number, is a failed run.
		err = sameNames(spec.metrics(o.trace == 1), res.values(o.trace == 1))
	}
	return res, err
}

// printResult prints the human-readable part of a run and then, as the last
// line, the one JSON object the contract asks for. A failed run gets no
// result line.
func printResult(res result, spec *benchSpec, traced bool, failed bool) {
	for _, line := range res.Segments {
		fmt.Println("#", line)
	}
	fmt.Printf("# stream %s, %d churn opens, set-ups %v\n", res.StreamHash, res.Opens, res.Setups)
	fmt.Printf("# share of samples taken with the host quiet: %s\n", mustJSON(res.Quiet))
	if res.Ungated {
		fmt.Println("# THE HOST WAS NEVER QUIET long enough for some metric: that metric is the median of every sample, slow ones included")
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	vals := res.values(traced)
	for _, d := range spec.metrics(traced) {
		out.Metrics[d.Name] = value{Value: vals[d.Name], Unit: d.Unit}
		fmt.Printf("  %-36s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
	}
	if !failed {
		fmt.Println(mustJSON(out))
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}
