package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/benchmark/layers"
	"repro/benchmark/measure"
)

// readsPerCycle is how many reads the application issues in one cycle: the
// scan, the read batches, one check after each write batch, the bulk batch.
const readsPerCycle = scanOps + readBatches*batchOps + writeBatches + bulkOps

// traceSteady is the traced steady phase: the same cycles with a clock read
// and a span around every call into activefile. What it finds goes into the
// per-layer metrics; the end-to-end metrics were taken before it, untraced,
// and the difference between the two phases' operation rates, untraced being
// the rate the run reports as ops_per_s, is the tracing overhead.
func (r *runner) traceSteady(tr *tracer, ph phases, sm *samples, untraced float64, layer map[string]float64) {
	r.tr = tr.phase(spanSteady)
	segs, _ := r.steady(ph.traced, 1, sm, nil)
	tr.endPhase()
	r.tr = nil
	traced, _, _ := r.metric(segs, func(s samples) []measure.Sample { return s.cycle })

	layer["client.read_p99_us"] = measure.Quantile(tr.rec.Durations(spanRead), 0.99)
	layer["client.write_p99_us"] = measure.Quantile(tr.rec.Durations(spanWrite), 0.99)
	layer["client.sync_us"] = measure.Median(tr.rec.Durations(spanSync))
	layer["client.trace_overhead_pct"] = (untraced/traced - 1) * 100
	layer["core.scan_frames_per_read"] = ratio(r.scanFrames, r.scanReads)
	layer["client.two_cpu_read_us"] = r.twoCPUReads(tr.place, ph.traced/4)
}

// twoCPUReads moves the workload's sentinels to a second CPU, issues read
// batches for d, moves them back, and returns what a random read cost
// meanwhile, in microseconds; 0 for a workload without sentinels or a host
// without a second CPU. Everything else in the benchmark runs on one CPU
// (pin.go says why), where a waiting ring never finds its peer running; this
// is the number that moves when the other regime does, the one the carriers'
// spin-before-park was built for. It has no bound, because across two
// virtual CPUs the host decides most of it.
func (r *runner) twoCPUReads(place placement, d time.Duration) float64 {
	sentinels := childPIDs()
	if place.Other < 0 || len(sentinels) == 0 {
		return 0
	}
	move := func(cpu int) (moved bool) {
		moved = true
		for _, pid := range sentinels {
			moved = pinAllThreads(pid, cpu) && moved
		}
		return moved
	}
	defer move(place.CPU)
	if !move(place.Other) {
		return 0 // better no number than one-CPU reads under this name
	}
	var reads []measure.Sample
	for start := time.Now(); time.Since(start) < d; {
		c := &r.st.cycles[r.cycle%streamCycles]
		r.cycle++
		for b := range c.reads {
			p := r.host.Begin()
			reads = append(reads, r.host.End(p, us(r.readBatch(&c.reads[b]))/batchOps))
		}
	}
	r.host.Probe(true)
	v, _, _ := r.host.Reduce([][]measure.Sample{reads})
	return v
}

// runTraced is a whole traced run: host calibration, the workload pass with
// its traced steady phase, the ladder, host calibration again. It prints the
// per-layer table's inputs and writes trace.json into o.dir.
func runTraced(w workload, o options, ph phases, scratch string) (result, error) {
	calib := time.Duration(o.seconds / 32 * float64(time.Second)) // half a second each side of a full-length run
	before, err := calibrate(calib)
	if err != nil {
		return result{}, err
	}

	// One log of host readings for the workload pass and the ladder: the
	// longer the log, the surer its floor.
	host := measure.NewHost()
	tr := newTracer(w.name, o.place)
	res, err := runWorkload(w, o.seed, ph, filepath.Join(scratch, "workload"), host, nil, tr)
	if err != nil {
		return res, err
	}

	st := newStream(o.seed, false)
	offsets := make([]int64, 0, streamCycles*readBatches*batchOps)
	for i := range st.cycles {
		for _, batch := range st.cycles[i].reads {
			offsets = append(offsets, batch[:]...)
		}
	}
	dir := filepath.Join(scratch, "ladder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	tr.phase(spanLadder)
	rungs, err := layers.Ladder(layers.Inputs{
		Dir: dir, Data: st.data, Offsets: offsets, Payload: st.writePayload(0),
		Rung:  time.Duration(o.seconds / 128 * float64(time.Second)),
		Opens: time.Duration(o.seconds / 64 * float64(time.Second)),
		Host:  host, Rec: tr.rec, Parent: tr.parent,
	})
	tr.finish()
	if err != nil {
		return res, fmt.Errorf("ladder: %w", err)
	}
	after, err := calibrate(calib)
	if err != nil {
		return res, err
	}

	for k, v := range rungs {
		res.layer[k] = v
	}
	// A carrier's cost is what a procctl read costs beyond the mux and wire
	// round trip and the handle work that every carrier shares.
	carrier := res.Metrics["read_us"] - rungs["ipc.mux_rt_us"] - rungs["core.direct_read_ns"]/1e3
	for name, key := range map[string]string{
		"procctl_pipe": "ipc.pipe_carrier_us", "procctl_shm": "shm.ring_carrier_us", "lane_sessions": "shm.lane_carrier_us",
	} {
		res.layer[key] = 0
		if w.name == name {
			res.layer[key] = carrier
		}
	}
	res.layer["host.spin_ns"] = (before.SpinNS + after.SpinNS) / 2
	res.layer["host.pipe_rt_us"] = (before.PipeRTUS + after.PipeRTUS) / 2
	res.layer["host.loadavg"] = before.LoadAvg
	fmt.Printf("# host before %s after %s\n", mustJSON(before), mustJSON(after))
	fmt.Printf("# end to end, untraced pass of this run: %s\n", mustJSON(res.Metrics))

	// The thread ladder, bottom up: each layer's self time is its rung minus
	// the rung below, so the self times sum to the top rung, which is what a
	// random read costs on thread_mem.
	c, p, d, t := rungs["cache.read_ns"], rungs["program.read_ns"], rungs["core.direct_read_ns"], rungs["core.thread_read_ns"]
	fmt.Printf("# thread ladder self times: cache %.0f + program %.0f + handle %.0f + rendezvous %.0f = %.0f ns\n", c, p-c, d-p, t-d, t)
	var apart error
	if w.name == "thread_mem" {
		// The ladder is only an account of the workload if it adds up to it.
		read := res.Metrics["read_us"] * 1e3
		fmt.Printf("# read_us is %.0f ns, the ladder %+.0f%% from it\n", read, (t/read-1)*100)
		if math.Abs(t/read-1) > 0.25 {
			apart = fmt.Errorf("the thread ladder sums to %.0f ns and read_us is %.0f ns: more than 25%% apart", t, read)
		}
	}

	self := measure.SelfTimes(tr.rec.Spans())
	for id, name := range tr.rec.Names() {
		if ns := self[int32(id)]; ns > 0 {
			fmt.Printf("# self %-40s %12.3f ms\n", name, float64(ns)/1e6)
		}
	}
	path := filepath.Join(o.dir, "trace.json")
	f, err := os.Create(path)
	if err != nil {
		return res, err
	}
	if err := errors.Join(tr.rec.WriteJSON(f), f.Close()); err != nil {
		return res, err
	}
	fmt.Printf("# %d spans (%d dropped) written to %s\n", len(tr.rec.Spans()), tr.rec.Dropped(), path)
	return res, apart
}
