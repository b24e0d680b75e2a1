package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/activefile"
	"repro/benchmark/layers"
	"repro/benchmark/measure"
)

// phases are the lengths of a run's parts. Every workload gets the same
// ones, so a number never differs between workloads because of how long it
// was measured.
type phases struct {
	setups   int           // timed set-ups; setup_s is reduced from them
	churn    time.Duration // open -> first byte -> close, repeatedly
	warmup   time.Duration // steady cycles whose timings are discarded
	steady   time.Duration // measured
	traced   time.Duration // steady again with a span around every call (trace pass only)
	segments int           // slices of the steady phase reported one by one
	minOpens int           // fewer churn samples than this fail the run
}

// phasesFor derives the phase lengths from the one duration the command line
// gives: seconds is the length of the measured steady phase of an untraced
// run. A traced run spends the same wall time differently, because it also
// has to replay the ladder.
func phasesFor(seconds float64, trace bool) phases {
	s := time.Duration(seconds * float64(time.Second))
	p := phases{setups: 40, churn: s / 4, warmup: s / 4, steady: s, segments: 8, minOpens: 200}
	if trace {
		// A traced run of every workload has a minute in all, so each gets
		// under a quarter of the time an untraced run has.
		p.setups, p.churn, p.warmup, p.steady, p.traced = 10, s/16, s/16, s/8, s/8
		p.minOpens = 25 // open_us is not reported from this pass
	}
	if seconds < 4 { // smoke runs prove the plumbing, not the numbers
		p.setups, p.minOpens = 2, 1
	}
	return p
}

// runner drives one workload. A single goroutine issues every operation: the
// workloads are closed loops with one client, and a second client goroutine
// would make the scheduler the thing being measured.
type runner struct {
	w  workload
	st *stream
	fx *fixture

	small []byte // destination of every 128-byte read
	bulk  []byte // destination of every 64 KiB read
	turn  int    // batches issued; picks the reader session round-robin
	cycle int    // cycles issued; indexes the stream
	wrote int64  // writes issued; selects each write's payload

	attempted, failed int64 // file operations issued, and those that failed or returned wrong bytes
	firstErr          error

	host    *measure.Host
	ungated bool               // some metric found the host never quiet and was reduced from every sample
	opens   [][]measure.Sample // churn samples, one slice per slice of churn: open to first byte, in microseconds
	closes  []float64          // and the closes

	tr *tracer // nil outside the traced phases

	// Response frames received while scans ran, and the reads those scans
	// issued: how many round trips read-ahead left per sequential read.
	// Counted only while tracing, from the sessions' own counters.
	scanFrames, scanReads float64
}

func (r *runner) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// check counts one operation and records it as failed unless it moved
// exactly want bytes without error.
func (r *runner) check(op string, off int64, n, want int, err error) {
	r.attempted++
	if err != nil || n != want {
		r.fail(fmt.Errorf("%s at %d: n=%d want %d: %v", op, off, n, want, err))
	}
}

// verify compares what a read returned with the session's shadow copy.
func (r *runner) verify(s *session, got []byte, off int64) {
	if !bytes.Equal(got, s.shadow[off:off+int64(len(got))]) {
		r.fail(fmt.Errorf("read at %d returned bytes that differ from the shadow copy", off))
	}
}

func (r *runner) nextReader() *session {
	s := r.fx.readers[r.turn%len(r.fx.readers)]
	r.turn++
	return s
}

// The four batch kinds. Each reads the clock twice, never per operation
// (unless tracing), and checks the last read of the batch against the
// shadow copy after the clock has stopped.

func (r *runner) scanBatch(c *cycle) time.Duration {
	s := r.nextReader()
	var frames float64
	if r.tr != nil {
		frames = r.dataPlane().frames
	}
	span := r.tr.beginBatch(spanScan, scanOps)
	t0 := time.Now()
	off := c.scan
	for i := 0; i < scanOps; i++ {
		op := r.tr.beginOp()
		n, err := s.h.ReadAt(r.small, off)
		r.tr.endOp(spanScanRead, span, op)
		r.check("scan read", off, n, smallIO, err)
		off += smallIO
	}
	d := time.Since(t0)
	r.tr.endBatch(span)
	if r.tr != nil {
		r.scanFrames += r.dataPlane().frames - frames
		r.scanReads += scanOps
	}
	r.verify(s, r.small, off-smallIO)
	return d
}

func (r *runner) readBatch(offs *[batchOps]int64) time.Duration {
	s := r.nextReader()
	span := r.tr.beginBatch(spanReadBatch, batchOps)
	t0 := time.Now()
	for _, off := range offs {
		op := r.tr.beginOp()
		n, err := s.h.ReadAt(r.small, off)
		r.tr.endOp(spanRead, span, op)
		r.check("read", off, n, smallIO, err)
	}
	d := time.Since(t0)
	r.tr.endBatch(span)
	r.verify(s, r.small, offs[batchOps-1])
	return d
}

// writeBatch ends with a Sync inside the timed region: procctl writes are
// posted without waiting for the sentinel, and without the barrier the
// batch would measure only how fast frames can be queued.
func (r *runner) writeBatch(offs *[batchOps]int64) time.Duration {
	s := r.fx.writer
	r.turn++
	span := r.tr.beginBatch(spanWriteBatch, batchOps)
	t0 := time.Now()
	for _, off := range offs {
		p := r.st.writePayload(r.wrote)
		r.wrote++
		op := r.tr.beginOp()
		n, err := s.h.WriteAt(p, off)
		r.tr.endOp(spanWrite, span, op)
		r.check("write", off, n, smallIO, err)
		copy(s.shadow[off:], p)
	}
	op := r.tr.beginOp()
	err := s.h.Sync()
	r.tr.endOp(spanSync, span, op)
	d := time.Since(t0)
	r.tr.endBatch(span)
	r.check("sync", 0, 0, 0, err)

	last := offs[batchOps-1]
	n, err := s.h.ReadAt(r.small, last)
	r.check("read after write", last, n, smallIO, err)
	r.verify(s, r.small, last)
	return d
}

func (r *runner) bulkBatch(offs *[bulkOps]int64) time.Duration {
	s := r.nextReader()
	span := r.tr.beginBatch(spanBulkBatch, bulkOps)
	t0 := time.Now()
	for _, off := range offs {
		op := r.tr.beginOp()
		n, err := s.h.ReadAt(r.bulk, off)
		r.tr.endOp(spanBulkRead, span, op)
		r.check("bulk read", off, n, bulkIO, err)
	}
	d := time.Since(t0)
	r.tr.endBatch(span)
	r.verify(s, r.bulk, offs[bulkOps-1])
	return d
}

// timedOps is how many file operations one cycle issues inside its batches'
// clocks; the checks after the clock has stopped are not among them.
const timedOps = scanOps + readBatches*batchOps + writeBatches*(batchOps+1) + bulkOps

// samples holds one sample per batch of a steady phase, in the order the
// batches ran: microseconds per operation for reads and writes, MB/s for
// scans and bulk reads, and per cycle the operations per second of time
// spent inside batches. The slices are allocated once, large enough for the
// fastest workload, and reused by every phase.
type samples struct{ read, write, scan, bulk, cycle []measure.Sample }

func newSamples() *samples {
	const room = 1 << 13 // cycles per phase before a slice has to grow
	return &samples{
		read:  make([]measure.Sample, 0, room*readBatches),
		write: make([]measure.Sample, 0, room*writeBatches),
		scan:  make([]measure.Sample, 0, room),
		bulk:  make([]measure.Sample, 0, room),
		cycle: make([]measure.Sample, 0, room),
	}
}

// inSegments is what the segments of a steady phase consumed and moved,
// summed over the segments only: whatever runs between them (a slice of
// churn) is not in it.
type inSegments struct {
	cpu, storeReads float64 // CPU seconds of driver and children; reads that reached a shard's store
	ops             int64
	cycles          int
	dp              dataPlane
}

// steady repeats the cycle for d, cut into n equal segments, and returns
// each segment's samples. between, when set, runs before each segment.
// Around every batch the host is probed (see measure/host.go), outside the
// batch's clock.
func (r *runner) steady(d time.Duration, n int, sm *samples, between func()) (segs []samples, in inSegments) {
	segLen := d / time.Duration(n)
	sm.read, sm.write, sm.scan, sm.bulk, sm.cycle = sm.read[:0], sm.write[:0], sm.scan[:0], sm.bulk[:0], sm.cycle[:0]
	for len(segs) < n {
		if between != nil {
			between()
		}
		from := *sm
		dp0, cpu0, store0, ops0 := r.dataPlane(), cpuSeconds(), r.fx.storeReads(), r.attempted
		for start := time.Now(); time.Since(start) < segLen; {
			c := &r.st.cycles[r.cycle%streamCycles]
			r.cycle++
			in.cycles++
			first := r.host.Begin()
			took := r.scanBatch(c)
			busy := took
			sm.scan = append(sm.scan, r.host.End(first, scanWindow/took.Seconds()/1e6))
			for b := range c.reads {
				p := r.host.Begin()
				took = r.readBatch(&c.reads[b])
				busy += took
				sm.read = append(sm.read, r.host.End(p, us(took)/batchOps))
			}
			for b := range c.writes {
				p := r.host.Begin()
				took = r.writeBatch(&c.writes[b])
				busy += took
				sm.write = append(sm.write, r.host.End(p, us(took)/batchOps))
			}
			p := r.host.Begin()
			took = r.bulkBatch(&c.bulk)
			busy += took
			sm.bulk = append(sm.bulk, r.host.End(p, bulkOps*bulkIO/took.Seconds()/1e6))
			sm.cycle = append(sm.cycle, r.host.End(first, timedOps/busy.Seconds()))
		}
		r.host.Probe(true) // the reading that closes the segment's last samples
		segs = append(segs, samples{
			read: sm.read[len(from.read):], write: sm.write[len(from.write):],
			scan: sm.scan[len(from.scan):], bulk: sm.bulk[len(from.bulk):], cycle: sm.cycle[len(from.cycle):],
		})
		in.cpu += cpuSeconds() - cpu0
		in.storeReads += r.fx.storeReads() - store0
		in.ops += r.attempted - ops0
		in.dp.add(r.dataPlane(), dp0)
	}
	return segs, in
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// metric reduces one kind of sample of a steady phase to one value; see
// measure.Host.Reduce.
func (r *runner) metric(segs []samples, kind func(samples) []measure.Sample) (v, share float64, gated bool) {
	per := make([][]measure.Sample, len(segs))
	for i, s := range segs {
		per[i] = kind(s)
	}
	return r.host.Reduce(per)
}

// churn opens the reader file, reads 128 bytes and closes it, for d, and
// adds the open-to-first-byte times as one more slice of r.opens and the
// close times to r.closes, in microseconds. The steady sessions stay open
// meanwhile, so on lane_sessions every churn open claims a fifth lane of the
// live segment and spawns nothing.
func (r *runner) churn(d time.Duration) {
	first := make([]byte, smallIO)
	var opens []measure.Sample
	defer func() {
		r.host.Probe(true)
		r.opens = append(r.opens, opens)
	}()
	for start := time.Now(); time.Since(start) < d; {
		off := r.st.churn[len(r.closes)%len(r.st.churn)]
		p := r.host.Begin()
		t0 := time.Now()
		h, err := activefile.OpenActive(r.fx.readerPath)
		r.check("open", 0, 0, 0, err)
		if err != nil {
			return // without a handle nothing below can run
		}
		n, err := h.ReadAt(first, off)
		t1 := time.Now()
		opens = append(opens, r.host.End(p, us(t1.Sub(t0))))
		r.check("first read", off, n, smallIO, err)
		// A new session starts from what the last Sync stored, and every
		// write batch ends in one: the writer's shadow, not the seed.
		if !bytes.Equal(first, r.fx.writer.shadow[off:off+smallIO]) {
			r.fail(errors.New("first read after open returned bytes that differ from what the last Sync stored"))
		}
		if st := h.Stats(); st.Carrier != r.w.carrier || st.CarrierFallback != "" {
			r.fail(fmt.Errorf("churn session on carrier %q (fallback %q), want %q", st.Carrier, st.CarrierFallback, r.w.carrier))
		}
		t2 := time.Now()
		err = h.Close()
		t3 := time.Now()
		r.check("close", 0, 0, 0, err)
		r.closes = append(r.closes, us(t3.Sub(t2)))
		r.tr.churnSpans(t0, t1, t2, t3)
	}
}

// readBack reads every session's whole file and compares its SHA-256 with
// the shadow copy's, then checks what reached storage: the data part on
// disk, or the replicas of the fleet object.
func (r *runner) readBack() {
	for _, s := range r.fx.sessions() {
		h := sha256.New()
		for off := int64(0); off < objectSize; off += bulkIO {
			n, err := s.h.ReadAt(r.bulk, off)
			r.check("read back", off, n, bulkIO, err)
			h.Write(r.bulk[:n])
		}
		if !bytes.Equal(h.Sum(nil), sum(s.shadow)) {
			r.fail(errors.New("digest of the file read back differs from the shadow copy's"))
		}
	}
	want := sum(r.fx.writer.shadow)
	if r.fx.fleet != nil {
		if n := r.fx.fleet.Holding(fleetObject, want); n != 2 {
			r.fail(fmt.Errorf("%d shards hold the bytes the client was told it wrote, want 2 replicas", n))
		}
		return
	}
	stored, err := os.ReadFile(activefile.DataPath(r.fx.writerPath))
	if err != nil || !bytes.Equal(sum(stored), want) {
		r.fail(fmt.Errorf("data part after the last Sync differs from the shadow copy (read error: %v)", err))
	}
}

// closeSteady ends the steady sessions, counting each Close as an operation.
// A sequential read-back leaves a read-ahead fill in flight, and Close
// racing a fill can fail (see newStream); a random read ends the streak and
// a Sync round trip outlasts the fill, so Close finds the session idle.
func (r *runner) closeSteady() {
	for _, s := range r.fx.sessions() {
		off := r.st.churn[0]
		n, err := s.h.ReadAt(r.small, off)
		r.check("read before close", off, n, smallIO, err)
		r.check("sync before close", 0, 0, 0, s.h.Sync())
		r.check("close", 0, 0, 0, s.h.Close())
	}
}

func sum(b []byte) []byte { s := sha256.Sum256(b); return s[:] }

// dataPlane sums the carrier counters the workload's sessions expose.
// Receive counters are per session; ring counters live in the segment, which
// lane sessions share, so they are read once.
type dataPlane struct{ doorbells, suppressed, frames, wakeups float64 }

// add accumulates the counters that moved between the snapshots from and to.
func (d *dataPlane) add(to, from dataPlane) {
	d.doorbells += to.doorbells - from.doorbells
	d.suppressed += to.suppressed - from.suppressed
	d.frames += to.frames - from.frames
	d.wakeups += to.wakeups - from.wakeups
}

func (r *runner) dataPlane() (d dataPlane) {
	for i, s := range r.fx.readers {
		st, ok := s.h.DataPlaneStats()
		if !ok {
			return dataPlane{}
		}
		d.frames += float64(st.RecvFrames)
		d.wakeups += float64(st.RecvWakeups)
		if i == 0 {
			d.doorbells, d.suppressed = float64(st.Doorbells), float64(st.Suppressed)
		}
	}
	return d
}

// result is everything one run of one workload produced.
type result struct {
	StreamHash string
	Metrics    map[string]float64 // end-to-end metrics
	Quiet      map[string]float64 // per timing metric, the share of its samples taken with the host quiet
	Ungated    bool               // the host was never quiet long enough for some metric; see measure.Host.Reduce
	Segments   []string           // one line per steady segment, for the reader of the run's output
	Setups     []float64          // every timed set-up, in seconds
	Opens      int                // churn samples behind open_us
	Attempted  int64
	Failed     int64

	layer map[string]float64 // per-layer metrics; traced runs only
}

// values returns what the run measured for a traced or an untraced pass.
func (r result) values(traced bool) map[string]float64 {
	if traced {
		return r.layer
	}
	return r.Metrics
}

// The kinds of sample a steady segment holds, by the metric each feeds.
var steadyMetrics = []struct {
	name string
	kind func(samples) []measure.Sample
}{
	{"read_us", func(s samples) []measure.Sample { return s.read }},
	{"write_us", func(s samples) []measure.Sample { return s.write }},
	{"scan_mb_s", func(s samples) []measure.Sample { return s.scan }},
	{"bulk_mb_s", func(s samples) []measure.Sample { return s.bulk }},
	{"ops_per_s", func(s samples) []measure.Sample { return s.cycle }},
}

// runWorkload is one whole run: set-ups, warm-up, eight times a slice of
// churn and a segment of steady, verify, teardown, set-ups again. scratch
// must be an empty directory the run may fill, host an empty log of host
// readings; wait, when set, holds the run back before a segment while the
// host is out of its usual state. With a tracer the steady phase is followed
// by a traced one of length ph.traced.
//
// Churn is dealt out between the steady segments, and the set-ups to either
// end of the run, because the host's slow episodes last seconds: samples
// bunched into a run's first seconds are all inside one or all outside, and
// a run whose churn fell into one would have no quiet open to report.
func runWorkload(w workload, seed int64, ph phases, scratch string, host *measure.Host, wait *hostWait, tr *tracer) (res result, err error) {
	st := newStream(seed, w.fleet)
	res = result{StreamHash: st.hash(), Metrics: map[string]float64{}, Quiet: map[string]float64{}}

	// timedSetUps sets up n times, one set-up being milliseconds and too
	// short to report from a single sample, and returns the last fixture
	// with its sessions open.
	var setups []measure.Sample
	timedSetUps := func(n int) (fx *fixture, err error) {
		defer host.Probe(true)
		for i := 0; i < n; i++ {
			if fx != nil {
				if err := fx.tearDown(); err != nil {
					return nil, fmt.Errorf("tear down a set-up: %w", err)
				}
			}
			p := host.Begin()
			t0 := time.Now()
			fx, err = setUp(w, filepath.Join(scratch, fmt.Sprintf("setup-%d", len(setups))), st.data)
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			setups = append(setups, host.End(p, time.Since(t0).Seconds()))
		}
		return fx, nil
	}
	fx, err := timedSetUps(ph.setups / 2)
	if err != nil {
		return res, err
	}
	tornDown := false
	defer func() {
		if !tornDown {
			err = errors.Join(err, fx.tearDown())
		}
	}()

	r := &runner{
		w: w, st: st, fx: fx, host: host, small: make([]byte, smallIO), bulk: make([]byte, bulkIO),
		closes: make([]float64, 0, 1<<14),
	}
	sm := newSamples()
	churnSlice := func() {
		wait.settle(host)
		r.tr = tr.phase(spanChurn)
		r.churn(ph.churn / time.Duration(ph.segments))
		tr.endPhase()
		r.tr = nil
	}

	runtime.GC()
	r.steady(ph.warmup, 1, sm, nil)
	runtime.GC()
	segs, in := r.steady(ph.steady, ph.segments, sm, churnSlice)
	rss := peakRSSMiB()
	fds := layers.SnapshotShm()

	var gated bool
	for _, m := range steadyMetrics {
		res.Metrics[m.name], res.Quiet[m.name], gated = r.metric(segs, m.kind)
		res.Ungated = res.Ungated || !gated
	}
	res.Metrics["open_us"], res.Quiet["open_us"], gated = host.Reduce(r.opens)
	res.Ungated = res.Ungated || !gated
	res.Metrics["rss_mb"] = rss
	for i := range segs {
		line := fmt.Sprintf("segment %d:", i)
		for _, m := range steadyMetrics {
			v, share, _ := r.metric(segs[i:i+1], m.kind)
			line += fmt.Sprintf(" %s %.4g (%.0f%% quiet)", m.name, v, share*100)
		}
		res.Segments = append(res.Segments, line)
	}

	var opens []float64
	for _, slice := range r.opens {
		for _, s := range slice {
			opens = append(opens, s.V)
		}
	}
	if tr != nil {
		res.layer = map[string]float64{
			"client.cpu_us_per_op":        in.cpu * 1e6 / float64(in.ops),
			"client.open_p99_us":          measure.Quantile(opens, 0.99),
			"client.close_us":             measure.Median(r.closes),
			"wire.recv_frames_per_wakeup": ratio(in.dp.frames, in.dp.wakeups),
			"shm.doorbells_per_frame":     ratio(in.dp.doorbells, in.dp.frames),
			"shm.suppressed_ratio":        ratio(in.dp.suppressed, in.dp.suppressed+in.dp.doorbells),
			"shm.segments":                float64(fds.Segments),
			"shm.doorbell_fds":            float64(fds.DoorbellFDs),
			"shm.lane_sessions":           float64(fds.LaneSessions),

			"fleet.server_reads_per_client_read": in.storeReads / float64(in.cycles*readsPerCycle),
		}
		r.traceSteady(tr, ph, sm, res.Metrics["ops_per_s"], res.layer)
	}
	r.readBack()
	if tr != nil {
		var c layers.FleetCounters // all zero on a workload without a fleet
		if fx.fleet != nil {
			c = fx.fleet.Counters()
		}
		res.layer["fleet.lease_grants"] = float64(c.LeaseGrants)
		res.layer["fleet.lease_revokes"] = float64(c.LeaseRevokes)
		res.layer["fleet.revoke_timeouts"] = float64(c.RevokeTimeouts)
		res.layer["fleet.apply_forwards"] = float64(c.ApplyForwards)
		res.layer["daemon.refusals"] = float64(c.Refusals)
	}
	r.closeSteady()
	res.Opens = len(opens)
	res.Attempted, res.Failed = r.attempted, r.failed

	// The other half of the set-ups, now that nothing of the run is left
	// that tearing them down could disturb.
	tornDown = true
	if err := fx.tearDown(); err != nil {
		return res, err
	}
	last, err := timedSetUps(ph.setups - ph.setups/2)
	if err != nil {
		return res, err
	}
	if err := last.tearDown(); err != nil {
		return res, err
	}
	res.Metrics["setup_s"], res.Quiet["setup_s"], gated = host.Reduce([][]measure.Sample{setups})
	res.Ungated = res.Ungated || !gated
	for _, s := range setups {
		res.Setups = append(res.Setups, s.V)
	}

	switch {
	case r.failed > 0:
		err = fmt.Errorf("%d of %d operations failed; first: %w", r.failed, r.attempted, r.firstErr)
	case len(opens) < ph.minOpens:
		err = fmt.Errorf("only %d churn opens in %v, need %d for open_us", len(opens), ph.churn, ph.minOpens)
	}
	return res, err
}

// ratio is a/b, or 0 when the workload has no such traffic.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
