package main

import (
	"time"

	"repro/benchmark/measure"
)

// Span names of the workload pass. The constants index the recorder's name
// table because newTracer interns them in this order.
const (
	spanRoot int32 = iota
	spanChurn
	spanSteady
	spanLadder
	spanOpenToFirstByte
	spanClose
	spanScan
	spanReadBatch
	spanWriteBatch
	spanBulkBatch
	spanRead
	spanScanRead
	spanWrite
	spanSync
	spanBulkRead
)

var spanNames = []string{
	spanRoot:            "workload",
	spanChurn:           "phase.churn",
	spanSteady:          "phase.steady_traced",
	spanLadder:          "phase.ladder",
	spanOpenToFirstByte: "activefile.OpenActive+ReadAt",
	spanClose:           "activefile.Handle.Close",
	spanScan:            "batch.scan",
	spanReadBatch:       "batch.read",
	spanWriteBatch:      "batch.write",
	spanBulkBatch:       "batch.bulk",
	spanRead:            "activefile.Handle.ReadAt",
	spanScanRead:        "activefile.Handle.ReadAt(scan)",
	spanWrite:           "activefile.Handle.WriteAt",
	spanSync:            "activefile.Handle.Sync",
	spanBulkRead:        "activefile.Handle.ReadAt(64KiB)",
}

const (
	spanCapacity = 1 << 18
	// ladderReserve spans are kept free for the ladder, which runs after the
	// traced steady phase has filled whatever it is allowed to.
	ladderReserve = 1 << 14
)

// tracer records the spans of the traced pass. Every method is safe on a
// nil tracer and then does nothing and reads no clock, so the untraced pass
// runs the same code without paying for it.
type tracer struct {
	rec    *measure.Recorder
	root   int32
	parent int32 // the current phase's span
	used   int   // workload-pass spans recorded so far

	place placement // where the run's processes are, for the two-CPU reads
}

func newTracer(workload string, place placement) *tracer {
	t := &tracer{rec: measure.NewRecorder(workload, spanCapacity), place: place}
	for _, n := range spanNames {
		t.rec.Name(n)
	}
	t.root = t.rec.Begin(spanRoot, -1, 1)
	t.parent = t.root
	return t
}

// phase opens a phase span under the root and makes it the parent of what
// follows. It returns the tracer so a runner can adopt it for that phase.
func (t *tracer) phase(name int32) *tracer {
	if t == nil {
		return nil
	}
	t.endPhase()
	t.parent = t.rec.Begin(name, t.root, 1)
	return t
}

func (t *tracer) endPhase() {
	if t != nil && t.parent != t.root {
		t.rec.End(t.parent)
		t.parent = t.root
	}
}

// finish closes the root span; nothing may be recorded afterwards.
func (t *tracer) finish() {
	t.endPhase()
	t.rec.End(t.root)
}

// room reports whether the workload pass may record one more span, and
// counts the span as dropped when it may not.
func (t *tracer) room() bool {
	if t.used < spanCapacity-ladderReserve {
		t.used++
		return true
	}
	t.rec.Skip()
	return false
}

func (t *tracer) beginBatch(name int32, n int) int32 {
	if t == nil || !t.room() {
		return -1
	}
	return t.rec.Begin(name, t.parent, int32(n))
}

func (t *tracer) endBatch(id int32) {
	if t != nil {
		t.rec.End(id)
	}
}

// beginOp reads the clock for one operation. The clock is read whether or
// not the span will be kept, so tracing costs every operation the same.
func (t *tracer) beginOp() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) endOp(name, parent int32, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	if parent < 0 { // the batch this call belongs to was not kept either
		t.rec.Skip()
	} else if t.room() {
		t.rec.Add(name, parent, 1, start, end)
	}
}

// churnSpans records one churn iteration: open to first byte, then close.
func (t *tracer) churnSpans(t0, t1, t2, t3 time.Time) {
	if t == nil {
		return
	}
	if t.room() {
		t.rec.Add(spanOpenToFirstByte, t.parent, 1, t0, t1)
	}
	if t.room() {
		t.rec.Add(spanClose, t.parent, 1, t2, t3)
	}
}
