package measure

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// The host gate (Host, Sample). The virtual machine this benchmark was built
// on moves between states every few seconds, for seconds to minutes at a
// time. In the commonest a getppid call takes 108 ns; in a slower one a
// system call takes a quarter longer, a memory-bound loop half as long
// again, an exec a third; now and then there is a faster one, by a tenth.
// Nothing inside the guest causes it (a loop on the other CPU does not bring
// it on, and it arrives with both CPUs idle), so it is other tenants, and a
// median over a whole run lands wherever the share of slow seconds puts it:
// identical runs differed by 15 to 30 %.
//
// So the benchmark measures the host while it measures the program, with
// code the program cannot influence, and keeps the samples taken while the
// host was in its usual state: the one earlier runs found it in or, before
// there are any, the one it was in most. A host reading is the fastest of
// eight slices of 25 getppid calls: no memory to evict, no lock to contend
// for, nothing of the repository, and taking the fastest slice sheds a
// preemption by a sentinel that was still runnable. Readings within a state
// repeat to a few per cent; the states are 10 to 30 % apart.
//
// Slowness the program causes (a park where a spin used to hit, a garbage
// collection, a revoke that times out) does not move the reading, so it
// stays in the samples and in the median. That is the difference from
// keeping a run's best stretch, which would hide it.
const (
	probeSlices = 8
	probeCalls  = 25
	probeEvery  = 2 * time.Millisecond // readings are no closer together than this
	probeWindow = 3                    // readings looked at on either side of a sample; all must be in the state
	stateWidth  = 0.04                 // readings this close together are one state
	stateMargin = 0.05                 // and a reading this close to the state's middle is in it
	minQuiet    = 4                    // a segment with fewer quiet samples has no value of its own
)

// Host is the host readings of one run, in the order they were taken.
type Host struct {
	last     time.Time
	readings []float64 // nanoseconds

	// Usual, when not 0, is the state earlier runs found the host in. The
	// samples that count are then the ones taken in that state, whatever
	// state this run saw most: a run inside a slow spell then has few
	// samples that count, or none, instead of slow ones.
	Usual float64
}

// NewHost returns an empty log with room for a run's readings.
func NewHost() *Host { return &Host{readings: make([]float64, 0, 1<<15)} }

// Probe takes a reading if the last is older than probeEvery, or if force
// is set. It is called between samples, never inside one.
func (h *Host) Probe(force bool) {
	if !force && time.Since(h.last) < probeEvery {
		return
	}
	best := time.Duration(1 << 62)
	for s := 0; s < probeSlices; s++ {
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			syscall.Getppid()
		}
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	h.last = time.Now()
	h.readings = append(h.readings, float64(best.Nanoseconds()))
}

// in reports whether reading r belongs to the given state.
func in(r, state float64) bool {
	return r <= state*(1+stateMargin) && r >= state/(1+stateMargin)
}

// Calm reports whether at least four in five of the latest n readings are in
// the given state. The host can be out of a state without settling into
// another: whatever slows it may come and go many times a second, and then
// most readings are still in the state while few samples have six of them
// in a row around them.
func (h *Host) Calm(state float64, n int) bool {
	latest := h.readings[max(0, len(h.readings)-n):]
	there := 0
	for _, r := range latest {
		if in(r, state) {
			there++
		}
	}
	return len(latest) > 0 && there*5 >= len(latest)*4
}

// Settle waits until the host is calm in state usual, the state earlier runs
// found it in, or until max has passed, and returns how long it waited. The
// gate keeps a slow spell of seconds out of a run's numbers; a slow spell of
// minutes is the whole run's state, and all a run can do about one is to sit
// it out. Every 50 ms of readings is judged on its own.
func Settle(usual float64, max time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < max {
		h := NewHost()
		for spell := time.Now(); time.Since(spell) < 50*time.Millisecond; time.Sleep(probeEvery) {
			h.Probe(true)
		}
		if h.Calm(usual, len(h.readings)) {
			break
		}
	}
	return time.Since(start)
}

// Sample is one timed batch, open or set-up, with the host readings that
// bracket it: p0 is the last reading taken before it began, p1 the first
// taken after it ended.
type Sample struct {
	V      float64
	p0, p1 int32
}

// Begin is called where a sample's clock is about to start, and End where
// it has stopped, with what Begin returned and the value measured. Together
// they bracket the sample between two readings.
func (h *Host) Begin() int32 {
	h.Probe(len(h.readings) == 0)
	return int32(len(h.readings) - 1)
}

func (h *Host) End(p0 int32, v float64) Sample {
	return Sample{V: v, p0: p0, p1: int32(len(h.readings))}
}

// State is the reading the host gave most often: the middle of the densest
// run of sorted readings that lie within stateWidth of each other. NaN
// before the first reading.
func (h *Host) State() float64 {
	s := append([]float64(nil), h.readings...)
	sort.Float64s(s)
	state, most := math.NaN(), 0
	lo := 0
	for hi := range s {
		for s[hi] > s[lo]*(1+stateWidth) {
			lo++
		}
		if n := hi - lo + 1; n > most {
			state, most = s[(lo+hi)/2], n
		}
	}
	return state
}

// quiet reports whether the host was in the given state on both sides of s:
// for the probeWindow readings up to the one before it and the probeWindow
// from the one after it. One reading a side is not enough, because what
// slows the host comes and goes faster than readings are taken: with one
// reading a side, runs during which it was slow half the time kept samples
// that were a quarter slower than other runs'; with three, a tenth.
func (h *Host) quiet(s Sample, state float64) bool {
	side := func(from, to int32) bool {
		from, to = max(from, 0), min(to, int32(len(h.readings)))
		for _, r := range h.readings[from:to] {
			if !in(r, state) {
				return false
			}
		}
		return to > from
	}
	return side(s.p0-probeWindow+1, s.p0+1) && side(s.p1, s.p1+probeWindow)
}

// Reduce turns the samples of one metric, one slice per segment of the run,
// into the run's value: each segment's median over its quiet samples, and
// the median of those. share is the part of all samples that was quiet.
// When the host was never quiet long enough for any segment to have a
// value, the samples are reduced ungated and gated reports false: the run
// still has a number, and its output says what the number is worth.
func (h *Host) Reduce(segments [][]Sample) (v float64, share float64, gated bool) {
	state := h.Usual
	if state == 0 {
		state = h.State()
	}
	var medians, ungated []float64
	total, kept := 0, 0
	for _, seg := range segments {
		var quiet, all []float64
		for _, s := range seg {
			all = append(all, s.V)
			if h.quiet(s, state) {
				quiet = append(quiet, s.V)
			}
		}
		total += len(all)
		kept += len(quiet)
		if len(quiet) >= minQuiet {
			medians = append(medians, Median(quiet))
		}
		if len(all) > 0 {
			ungated = append(ungated, Median(all))
		}
	}
	if total > 0 {
		share = float64(kept) / float64(total)
	}
	if len(medians) == 0 {
		return Median(ungated), share, false
	}
	return Median(medians), share, true
}
