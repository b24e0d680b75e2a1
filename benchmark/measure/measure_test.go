package measure

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndQuantile(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of nothing must be NaN, not a number that reads as a measurement")
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0.99); !near(got, 49.6) {
		t.Errorf("p99 = %v, want 49.6", got)
	}
	if xs[0] != 10 || xs[4] != 50 {
		t.Error("estimators must not reorder their input")
	}
}

// TestQuartilesMatchPython pins Quartiles to statistics.quantiles(xs, n=4),
// which is what the acceptance gate computes; the expected values were
// produced by Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1.5, 9}, 1.25, 6.5},
		{[]float64{2, 8}, 0.5, 9.5},
	} {
		q1, q3 := Quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("Quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("Spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// span builds a closed span by hand, in nanoseconds.
func span(id, parent, name int32, start, end int64) Span {
	return Span{ID: id, Parent: parent, Name: name, N: 1, Start: start, End: end}
}

func TestSelfTimes(t *testing.T) {
	const root, layer, leaf = 0, 1, 2
	spans := []Span{
		span(0, -1, root, 0, 100),
		span(1, 0, layer, 10, 40),  // covers 30 of the root
		span(2, 0, layer, 30, 60),  // overlaps the first: together they cover 10..60
		span(3, 1, leaf, 15, 25),   // 10 of the first layer span
		span(4, 0, layer, 90, 130), // runs past its parent: only 90..100 counts
	}
	self := SelfTimes(spans)
	// root: 100 - (50 + 10); layer: (30-10) + 30 + 40; leaf: 10.
	if self[root] != 40 || self[layer] != 90 || self[leaf] != 10 {
		t.Errorf("self times = %v, want root 40, layer 90, leaf 10", self)
	}
}

func TestRecorderCapacityAndNil(t *testing.T) {
	var none *Recorder
	if id := none.Begin(0, -1, 1); id != -1 {
		t.Errorf("nil recorder returned span %d", id)
	}
	none.End(-1)
	if none.Spans() != nil || none.Dropped() != 0 {
		t.Error("nil recorder must be empty")
	}

	r := NewRecorder("w", 2)
	a := r.Name("a")
	if r.Name("a") != a {
		t.Error("names must be interned")
	}
	first := r.Begin(a, -1, 1)
	r.End(first)
	now := time.Now()
	r.Add(a, first, 4, now, now.Add(8*time.Microsecond))
	if id := r.Begin(a, -1, 1); id != -1 {
		t.Errorf("full recorder returned span %d", id)
	}
	if len(r.Spans()) != 2 || r.Dropped() != 1 {
		t.Errorf("%d spans, %d dropped; want 2 and 1", len(r.Spans()), r.Dropped())
	}
	if d := r.Durations(a); len(d) != 2 || !near(d[1], 2) {
		t.Errorf("durations = %v, want the second to be 8us/4 calls = 2", d)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workload string
		Dropped  int
		Names    []string
		Spans    [][]int64
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, buf.String())
	}
	if doc.Workload != "w" || doc.Dropped != 1 || len(doc.Names) != 1 || len(doc.Spans) != 2 || len(doc.Spans[0]) != 6 {
		t.Errorf("trace round trip lost something: %+v", doc)
	}
}

// hostWith builds a log from readings taken by hand.
func hostWith(readings ...float64) *Host { return &Host{readings: readings} }

// TestReduceKeepsWhatTheProgramDidAndDropsWhatTheHostDid: samples between
// slow host readings go; a slow sample between fast readings is the
// program's own and stays in the median.
func TestReduceKeepsWhatTheProgramDidAndDropsWhatTheHostDid(t *testing.T) {
	// Readings 0-9 fast, 10-19 a quarter slower, 20-29 fast again.
	var readings []float64
	for i := 0; i < 30; i++ {
		r := 1000.0
		if i >= 10 && i < 20 {
			r = 1250
		}
		readings = append(readings, r)
	}
	h := hostWith(readings...)
	var seg []Sample
	for i := int32(0); i < 29; i++ {
		v := 10.0
		if i >= 10 && i < 20 {
			v = 14 // the host's doing
		}
		if i == 3 || i == 5 || i == 25 {
			v = 30 // the program's doing
		}
		seg = append(seg, Sample{V: v, p0: i, p1: i + 1})
	}
	v, share, gated := h.Reduce([][]Sample{seg})
	if !gated || v != 10 {
		t.Errorf("Reduce = %v (gated %v), want 10: the slow stretch must not count", v, gated)
	}
	if share < 0.4 || share > 0.6 { // a third is slow, and so are the windows of the samples beside it
		t.Errorf("quiet share = %v, want about a half", share)
	}
	slow := 0
	for _, s := range seg {
		if s.V == 30 && h.quiet(s, h.State()) {
			slow++
		}
	}
	if slow != 3 {
		t.Errorf("%d of 3 samples the program made slow survived the gate; all must", slow)
	}

	// A spell of a faster state is no more the run's state than a slower one.
	for i := 20; i < 25; i++ {
		h.readings[i] = 880
	}
	if h.State() != 1000 {
		t.Errorf("state = %v with 15 of 30 readings at 1000, 10 at 1250 and 5 at 880; want 1000", h.State())
	}
	if h.quiet(Sample{p0: 22, p1: 23}, h.State()) {
		t.Error("a sample taken in a faster state than the run's passed the gate")
	}

	// One reading out of the state on either side is enough to drop a sample:
	// what slows the host flickers faster than it is read.
	h = hostWith(1000, 1000, 1000, 1900, 1000, 1000, 1000, 1000)
	if h.quiet(Sample{p0: 3, p1: 4}, h.State()) || h.quiet(Sample{p0: 2, p1: 3}, h.State()) {
		t.Error("a sample beside a high reading passed the gate")
	}
	if !h.quiet(Sample{p0: 2, p1: 4}, h.State()) { // readings 0-2 before it, 4-6 after it
		t.Error("a sample between two quiet windows was dropped")
	}
	// A sample whose closing reading was never taken is not quiet.
	if h.quiet(Sample{p0: 7, p1: 8}, h.State()) {
		t.Error("a sample with no reading after it passed the gate")
	}
}

// TestReduceIsMedianOfSegmentMedians, and falls back to every sample when no
// segment has enough quiet ones.
func TestReduceIsMedianOfSegmentMedians(t *testing.T) {
	h := hostWith(1000, 1000, 1000, 1000, 1000, 1000, 1000, 1000)
	seg := func(vs ...float64) (out []Sample) {
		for i, v := range vs {
			out = append(out, Sample{V: v, p0: int32(i), p1: int32(i + 1)})
		}
		return out
	}
	v, _, gated := h.Reduce([][]Sample{seg(1, 2, 3, 4, 5), seg(10, 20, 30, 40, 50), seg(7, 7, 7, 7, 100)})
	if !gated || v != 7 {
		t.Errorf("Reduce = %v (gated %v), want 7, the median of 3, 30 and 7", v, gated)
	}
	v, share, gated := h.Reduce([][]Sample{seg(1, 2, 3)}) // fewer than minQuiet
	if gated || v != 2 || share != 1 {
		t.Errorf("Reduce of a short segment = %v (gated %v, share %v), want the plain median 2, ungated", v, gated, share)
	}
}

// TestUsualStateOverridesTheRunsOwn: a run that spends most of its time in a
// slow spell counts the samples of the state earlier runs found the host in,
// not of the state it saw most itself.
func TestUsualStateOverridesTheRunsOwn(t *testing.T) {
	var readings []float64
	var seg []Sample
	for i := int32(0); i < 40; i++ {
		r, v := 1250.0, 14.0 // the slow spell: thirty readings of forty
		if i < 10 {
			r, v = 1000, 10
		}
		readings = append(readings, r)
		seg = append(seg, Sample{V: v, p0: i, p1: i + 1})
	}
	h := hostWith(readings...)
	if v, _, gated := h.Reduce([][]Sample{seg}); !gated || v != 14 {
		t.Errorf("with nothing remembered Reduce = %v (gated %v), want 14, the state the run saw most", v, gated)
	}
	h.Usual = 1000
	if v, _, gated := h.Reduce([][]Sample{seg}); !gated || v != 10 {
		t.Errorf("with the usual state remembered Reduce = %v (gated %v), want 10", v, gated)
	}
	if h.Calm(1000, 25) {
		t.Error("the host reads slow in all of the latest 25 readings and counts as calm")
	}
	if !h.Calm(1250, 25) || hostWith(1000, 1000, 1250, 1000, 1000).Calm(1250, 5) {
		t.Error("calm means four readings in five in the state")
	}
}
