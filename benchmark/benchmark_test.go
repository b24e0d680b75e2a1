package main

import (
	"os"
	"sort"
	"testing"
	"time"

	"repro/activefile/sentinel"
)

func TestMain(m *testing.M) {
	// The test binary is what process strategies and the host calibration
	// re-execute.
	sentinel.MaybeChild()
	maybePingPongChild()
	maybeIdleSpinner()
	os.Exit(m.Run())
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := newStream(7, false), newStream(7, false), newStream(8, false)
	if a.hash() != b.hash() {
		t.Error("the same seed generated different inputs")
	}
	if a.hash() == c.hash() {
		t.Error("different seeds generated the same inputs")
	}
	if a.hash() == newStream(7, true).hash() {
		t.Error("Zipf and uniform reads generated the same inputs")
	}
	for _, cy := range a.cycles {
		if cy.scan < 0 || cy.scan+scanWindow > objectSize {
			t.Fatalf("scan window at %d leaves the object", cy.scan)
		}
		for _, batch := range cy.reads {
			for _, off := range batch {
				if off < 0 || off+smallIO > objectSize {
					t.Fatalf("read at %d leaves the object", off)
				}
			}
		}
		for _, off := range cy.bulk {
			if off < 0 || off+bulkIO > objectSize {
				t.Fatalf("bulk read at %d leaves the object", off)
			}
		}
	}
	if string(a.writePayload(0)) == string(a.writePayload(1)) {
		t.Error("successive writes carry the same bytes; a stale read would pass verification")
	}
}

// TestZipfReadsStayInsideOneBlock: a Zipf read must not straddle two cache
// blocks, or the hot set would be twice as large as the workload says.
func TestZipfReadsStayInsideOneBlock(t *testing.T) {
	hot := map[int64]int{}
	total := 0
	for _, cy := range newStream(3, true).cycles {
		for _, batch := range cy.reads {
			for _, off := range batch {
				if off/cacheBlock != (off+smallIO-1)/cacheBlock {
					t.Fatalf("read at %d straddles blocks", off)
				}
				hot[off/cacheBlock]++
				total++
			}
		}
	}
	counts := make([]int, 0, len(hot))
	for _, n := range hot {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := 0
	for _, n := range counts[:cacheBlocks] {
		top += n
	}
	if share := float64(top) / float64(total); share < 0.6 || share > 0.95 {
		t.Errorf("the %d hottest blocks take %.0f%% of reads; the workload needs a hot set the cache mostly, not wholly, holds", cacheBlocks, share*100)
	}
}

func TestContractNamesTheWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the benchmark", i, spec.Workloads[i].Name, w.name)
		}
		if spec.Workloads[i].Why != w.why {
			t.Errorf("%s: BENCHMARK.json gives a different reason than the benchmark", w.name)
		}
	}
	if len(spec.EndToEnd) != 8 {
		t.Errorf("%d end-to-end metrics, want 8", len(spec.EndToEnd))
	}
}

// TestSmoke runs every workload, untraced and traced, through the same code
// as a full run. runSmoke fails unless every operation succeeded, every
// digest matched, every session ran on the asserted strategy and carrier,
// and the names each pass emitted are exactly the names in BENCHMARK.json.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns sentinels and runs for several seconds")
	}
	if code := run([]string{"-smoke", "-dir", t.TempDir(), "-spec", "../BENCHMARK.json"}); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
}

func TestPhasesKeepTheirProportions(t *testing.T) {
	full := phasesFor(12, false)
	if full.churn != full.steady/4 || full.warmup != full.steady/4 {
		t.Errorf("untraced phases %+v: churn and warm-up must be a quarter of steady", full)
	}
	// Five traced runs have a minute between them; the ladder and the host
	// calibration take about five seconds of each.
	traced := phasesFor(12, true)
	if total := traced.churn + traced.warmup + traced.steady + traced.traced; total > 6*time.Second {
		t.Errorf("traced phases take %v before the ladder; with the ladder a traced run would pass 12 s", total)
	}
}
