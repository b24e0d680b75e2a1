package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/benchmark/measure"
)

// runChild runs one workload once in a fresh process of this binary and
// returns the metrics of its result line. Runs are separate processes, as
// the acceptance gate's are: peak RSS, heap state and the age of the process
// would otherwise carry from one run into the next.
func runChild(o options, workload string, seed int64) (map[string]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-dir", o.dir, "-spec", o.spec)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, strings.TrimSpace(stderr.String()))
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line struct {
		Correct bool `json:"correct"`
		Failed  int64
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: run reported incorrect output", workload, seed)
	}
	vals := make(map[string]float64, len(line.Metrics))
	for k, v := range line.Metrics {
		vals[k] = v.Value
	}
	return vals, nil
}

// aaCell is one workload × metric pairing of an A/A comparison.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	SpreadA  float64   `json:"iqr_over_median_a"`
	SpreadB  float64   `json:"iqr_over_median_b"`
	Spread   float64   `json:"iqr_over_median_all"` // over both sets together: every run had a seed of its own
	Gap      float64   `json:"gap"`                 // |median_b - median_a| / median_a
	Within   bool      `json:"within_bound"`        // gap and spread both
}

// runAA is the A/A gate: for every workload, two sets of o.aa runs of this
// same binary, interleaved ABAB so that drift of the host lands on both
// sets alike, each run with a seed of its own. A cell whose medians differ
// by more than the metric's bound fails the gate: with such a cell the
// benchmark could not tell a regression of that size from nothing at all.
// So does a cell whose runs, all of them together, spread over more than the
// bound between their quartiles; set-up time is excused from that, being a
// few milliseconds of fork and exec.
func runAA(o options, spec *benchSpec) int {
	report := struct {
		Env     environment `json:"environment"`
		Seconds float64     `json:"seconds"`
		Runs    int         `json:"runs_per_set"`
		Cells   []aaCell    `json:"cells"`
		Pass    bool        `json:"pass"`
	}{Env: captureEnvironment(o.dir), Seconds: o.seconds, Runs: o.aa, Pass: true}

	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < o.aa; i++ {
			for side := range sets {
				seed := o.seed + int64(2*i+side)
				vals, err := runChild(o, w.name, seed)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for k, v := range vals {
					sets[side][k] = append(sets[side][k], v)
				}
				fmt.Printf("# %s %c%d seed %d done\n", w.name, 'A'+side, i, seed)
			}
		}
		for _, m := range spec.EndToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			c := aaCell{
				Workload: w.name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, A: a, B: b,
				MedianA: measure.Median(a), MedianB: measure.Median(b),
				SpreadA: measure.Spread(a), SpreadB: measure.Spread(b),
				Spread: measure.Spread(append(append([]float64(nil), a...), b...)),
			}
			c.Gap = math.Abs(c.MedianB-c.MedianA) / c.MedianA
			c.Within = c.Gap <= m.Bound && (c.Spread <= m.Bound || m.Name == "setup_s")
			report.Pass = report.Pass && c.Within
			report.Cells = append(report.Cells, c)
		}
	}

	fmt.Printf("%-14s %-10s %14s %14s %8s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "IQR A", "IQR B", "IQR all", "gap", "bound")
	for _, c := range report.Cells {
		flag := ""
		switch {
		case !c.Within:
			flag = "  FAIL"
		case c.Gap > c.Bound/2:
			flag = "  gap over half the bound"
		case c.Spread > c.Bound/3 && c.Metric != "setup_s":
			flag = "  spread over a third of the bound"
		}
		fmt.Printf("%-14s %-10s %14.4f %14.4f %7.1f%% %7.1f%% %7.1f%% %7.1f%% %5.0f%%%s\n", c.Workload, c.Metric,
			c.MedianA, c.MedianB, c.SpreadA*100, c.SpreadB*100, c.Spread*100, c.Gap*100, c.Bound*100, flag)
	}
	const out = "benchmark/AA.json" // beside the benchmark, and committed with it
	b, err := json.MarshalIndent(report, "", " ")
	if err == nil {
		err = os.WriteFile(out, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# written to %s\n", out)
	if !report.Pass {
		fmt.Fprintln(os.Stderr, "benchmark: A/A gate failed: two sets of runs of the same binary disagree by more than a bound")
		return 1
	}
	return 0
}

// runAll runs every workload once, each in its own process, and prints one
// table of the end-to-end metrics.
func runAll(o options, spec *benchSpec) int {
	rows := map[string]map[string]float64{}
	for _, w := range workloads {
		vals, err := runChild(o, w.name, o.seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		rows[w.name] = vals
	}
	defs := spec.metrics(o.trace == 1)
	fmt.Printf("%-36s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %14s", w.name)
	}
	fmt.Println()
	for _, m := range defs {
		fmt.Printf("%-36s %-6s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Printf(" %14.4f", rows[w.name][m.Name])
		}
		fmt.Println()
	}
	return 0
}

// runSmoke runs every workload in this process, untraced and traced, for
// about a second each: enough to prove that every path of the benchmark
// works and every metric of the contract is produced, not enough to mean
// anything as a number.
func runSmoke(o options, spec *benchSpec) int {
	o.seconds = 0.5
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			o.trace = trace
			res, err := runOnce(w, o, spec)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: smoke %s trace=%d: %v\n", w.name, trace, err)
				return 1
			}
			fmt.Printf("smoke %-14s trace=%d ok: %d operations, 0 failed\n", w.name, trace, res.Attempted)
		}
	}
	return 0
}

// sameNames checks that a pass produced exactly the metrics the contract
// declares for it: none missing, none extra, each a finite number.
func sameNames(defs []metricDef, vals map[string]float64) error {
	declared := map[string]bool{}
	for _, m := range defs {
		declared[m.Name] = true
		if v, ok := vals[m.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is in BENCHMARK.json but the run produced %v", m.Name, v)
		}
	}
	for name := range vals {
		if !declared[name] {
			return fmt.Errorf("metric %s was produced but is not in BENCHMARK.json", name)
		}
	}
	return nil
}
