//go:build linux

package shm

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject/leaktest"
)

// Tests for the syscall-economy surface: doorbell coalescing
// (BeginFlush/EndFlush), the shared wakeup counters, and the segment layout
// with its control region.

// TestFlushCoalescingOneDoorbellPerBracket pins the headline property: a
// bracketed group of N writes wakes a parked consumer with at most ONE
// doorbell, with the other publishes recorded as suppressed.
func TestFlushCoalescingOneDoorbellPerBracket(t *testing.T) {
	leaktest.Check(t)
	s := newTestSegment(t, 1, 0, 0)
	q := s.Cmd()
	p := q.Producer(0, RecordFrame)

	const writes = 16
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, writes)
		if _, err := io.ReadFull(&laneStream{q: q}, buf); err != nil {
			t.Errorf("read: %v", err)
			close(got)
			return
		}
		got <- buf
	}()
	waitFor(t, func() bool { return q.Stats().Parks >= 1 })

	before := q.Stats()
	p.BeginFlush()
	for i := 0; i < writes; i++ {
		if _, err := p.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	p.EndFlush()

	select {
	case buf := <-got:
		for i, b := range buf {
			if b != byte(i) {
				t.Fatalf("byte %d = %#x, want %#x", i, b, byte(i))
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("deferred doorbell never woke the parked consumer")
	}

	after := q.Stats()
	if rang := after.Doorbells - before.Doorbells; rang != 1 {
		t.Fatalf("bracket of %d writes rang %d doorbells, want exactly 1", writes, rang)
	}
	if supp := after.Suppressed - before.Suppressed; supp < writes-1 {
		t.Fatalf("bracket of %d writes suppressed %d wakeups, want >= %d", writes, supp, writes-1)
	}
}

// TestFlushBracketFullRingDoesNotDeadlock is the liveness hazard the
// coalescer must dodge: mid-bracket, the producer fills the queue while the
// consumer is parked awaiting a doorbell the bracket is deferring. The
// queue-full path must surface the pending wake before parking for space.
func TestFlushBracketFullRingDoesNotDeadlock(t *testing.T) {
	leaktest.Check(t)
	s := newTestSegment(t, 1, minRingBytes, minRingBytes)
	q := s.Cmd()
	p := q.Producer(0, RecordFrame)

	const total = 4 * minRingBytes
	readerDone := make(chan error, 1)
	go func() {
		r := &laneStream{q: q}
		buf := make([]byte, 512)
		seen := 0
		for seen < total {
			n, err := r.Read(buf)
			if err != nil {
				readerDone <- err
				return
			}
			seen += n
		}
		readerDone <- nil
	}()
	waitFor(t, func() bool { return q.Stats().Parks >= 1 })

	done := make(chan error, 1)
	go func() {
		p.BeginFlush()
		defer p.EndFlush()
		// Far larger than capacity: the producer must park for space at
		// least once while the bracket is open.
		_, err := p.Write(make([]byte, total))
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("bracketed over-capacity write: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("producer deadlocked mid-bracket on a full queue (lost wakeup)")
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
}

// TestRingWakeupLiveness is the randomized lost-wakeup hunt: a producer
// issuing randomly sized, randomly bracketed write groups and a consumer
// draining with random pauses must always terminate. Run under -race this
// doubles as the ordering check on the Dekker-style parked/doorbell
// handshake; a suppression bug shows up as a hang, caught by the deadline.
func TestRingWakeupLiveness(t *testing.T) {
	leaktest.Check(t)
	const (
		rounds = 4
		total  = 64 * 1024
	)
	for round := 0; round < rounds; round++ {
		s := newTestSegment(t, 1, minRingBytes, minRingBytes)
		q := s.Reply()
		p := q.Producer(0, RecordFrame)
		rng := rand.New(rand.NewSource(int64(round) * 7919))
		seed := rng.Int63()

		var wg sync.WaitGroup
		errs := make(chan error, 2)
		wg.Add(2)
		go func() { // producer: bracketed bursts of small writes
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed))
			sent := 0
			for sent < total {
				burst := 1 + prng.Intn(8)
				bracketed := prng.Intn(2) == 0
				if bracketed {
					p.BeginFlush()
				}
				for i := 0; i < burst && sent < total; i++ {
					n := min(1+prng.Intn(700), total-sent)
					if _, err := p.Write(make([]byte, n)); err != nil {
						if bracketed {
							p.EndFlush()
						}
						errs <- err
						return
					}
					sent += n
				}
				if bracketed {
					p.EndFlush()
				}
				if prng.Intn(4) == 0 {
					runtime.Gosched()
				}
			}
		}()
		go func() { // consumer: drain with erratic pacing
			defer wg.Done()
			prng := rand.New(rand.NewSource(seed + 1))
			r := &laneStream{q: q}
			buf := make([]byte, 1024)
			seen := 0
			for seen < total {
				n, err := r.Read(buf[:1+prng.Intn(len(buf))])
				if err != nil {
					errs <- err
					return
				}
				seen += n
				if prng.Intn(8) == 0 {
					time.Sleep(time.Duration(prng.Intn(200)) * time.Microsecond)
				}
			}
		}()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: producer/consumer wedged — lost wakeup under doorbell suppression", round)
		}
		close(errs)
		for err := range errs {
			t.Fatalf("round %d: %v", round, err)
		}
		s.Close()
	}
}

// TestSharedDoorbellCountersCrossAttach checks that the wakeup counters live
// in the segment, not the process: bells rung through the creator's view
// are visible through an attached view's Stats, the way a sentinel's
// reply-queue bells must be visible to the parent.
func TestSharedDoorbellCountersCrossAttach(t *testing.T) {
	s := newTestSegment(t, 1, 0, 0)
	att := attachClone(t, s)

	// The attached view's consumer parks; the creator's producer wakes it.
	// The doorbell is rung through the creator's queue, but the counter must
	// read back identically through the attached queue — one shared ledger.
	done := make(chan struct{})
	go func() {
		var b [1]byte
		io.ReadFull(&laneStream{q: att.Cmd()}, b[:])
		close(done)
	}()
	waitFor(t, func() bool { return att.Cmd().Stats().Parks >= 1 })
	if _, err := s.Cmd().Producer(0, RecordFrame).Write([]byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	<-done

	creator, attached := s.Cmd().Stats(), att.Cmd().Stats()
	if creator.Doorbells == 0 {
		t.Fatal("no doorbell recorded for a parked-consumer wakeup")
	}
	if creator.Doorbells != attached.Doorbells || creator.Suppressed != attached.Suppressed {
		t.Fatalf("counters diverge across attach: creator %+v attached %+v", creator, attached)
	}
}

// TestMultiRingSegmentGeometry pins the segment layout: NewMPSC rounds each
// ring's capacity up to a power of two, bounds the lane count, hands the
// attaching process five files, and both rings move records independently
// for every lane.
func TestMultiRingSegmentGeometry(t *testing.T) {
	const lanes = 3
	s := newTestSegment(t, lanes, 5000, 20000)
	if s.Lanes() != lanes {
		t.Fatalf("Lanes = %d, want %d", s.Lanes(), lanes)
	}
	if c, r := len(s.Cmd().data), len(s.Reply().data); c != 8192 || r != 32768 {
		t.Fatalf("ring capacities = %d/%d, want 8192/32768", c, r)
	}
	// 1 segment file + 2 bells per ring.
	if got := len(s.ChildFiles()); got != 5 {
		t.Fatalf("ChildFiles = %d files, want 5", got)
	}
	for _, bad := range []int{-1, MaxLanes + 1} {
		if seg, err := NewMPSC(bad, 0, 0); err == nil {
			seg.Close()
			t.Fatalf("NewMPSC(%d lanes) accepted", bad)
		}
	}

	for lane := uint16(0); lane < lanes; lane++ {
		for dir, q := range []*MPSCQueue{s.Cmd(), s.Reply()} {
			msg := []byte{byte(lane), byte(dir), 0xAA}
			if _, err := q.Producer(lane, RecordFrame).Write(msg); err != nil {
				t.Fatalf("lane %d dir %d write: %v", lane, dir, err)
			}
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(&laneStream{q: q, lane: lane}, got); err != nil {
				t.Fatalf("lane %d dir %d read: %v", lane, dir, err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("lane %d dir %d: got %v want %v", lane, dir, got, msg)
			}
		}
	}
}

// TestAttachSharesControlRegion: an attached view reads the creator's
// geometry and lane table out of the same control region, and records the
// creator commits on a non-zero lane arrive through the attached view.
func TestAttachSharesControlRegion(t *testing.T) {
	s := newTestSegment(t, 4, 0, 0)
	att := attachClone(t, s)

	if att.Lanes() != s.Lanes() || len(att.Cmd().data) != len(s.Cmd().data) ||
		len(att.Reply().data) != len(s.Reply().data) {
		t.Fatalf("attach geometry %d lanes %d/%d, creator %d lanes %d/%d",
			att.Lanes(), len(att.Cmd().data), len(att.Reply().data),
			s.Lanes(), len(s.Cmd().data), len(s.Reply().data))
	}
	first, _ := s.ClaimLane()
	second, _ := s.ClaimLane()
	s.ReleaseLane(first)
	if c, d := att.LaneCounts(); c != 1 || d != 1 {
		t.Fatalf("attached view counts (%d claimed, %d draining), want (1, 1)", c, d)
	}

	if _, err := s.Cmd().Producer(second, RecordFrame).Write([]byte("lane1")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, 5)
	if _, err := io.ReadFull(&laneStream{q: att.Cmd(), lane: second}, got); err != nil || string(got) != "lane1" {
		t.Fatalf("cross-view read = %q, %v", got, err)
	}
}

// TestAttachRejectsBadSegments: attach must fail cleanly on garbage — wrong
// magic, an older layout version, a bell count that does not match the
// queues, or a mapping whose size the declared geometry does not explain —
// rather than carving queues out of lies.
func TestAttachRejectsBadSegments(t *testing.T) {
	junk := func(version uint32) *os.File {
		f, err := os.CreateTemp(t.TempDir(), "junk")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(int64(segHdrBytes + 2*(ringHdrBytes+minRingBytes))); err != nil {
			t.Fatal(err)
		}
		if version != 0 {
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], segMagic)
			binary.LittleEndian.PutUint32(hdr[4:], version)
			if _, err := f.WriteAt(hdr[:], 0); err != nil {
				t.Fatal(err)
			}
		}
		return f
	}
	if _, err := AttachMPSC(junk(0), make([]*os.File, 4)); err == nil {
		t.Fatal("AttachMPSC accepted a zeroed (magic-less) segment")
	}
	if _, err := AttachMPSC(junk(mpscVersion-1), make([]*os.File, 4)); err == nil {
		t.Fatal("AttachMPSC accepted an older segment version")
	}

	s := newTestSegment(t, 1, 0, 0)
	files := dupFiles(t, s.ChildFiles())
	if _, err := AttachMPSC(files[0], files[1:3]); err == nil {
		t.Fatal("AttachMPSC accepted a bell count that cannot cover the queues")
	}
	files[3].Close()
	files[4].Close()
	files = dupFiles(t, s.ChildFiles())
	if err := files[0].Truncate(int64(segHdrBytes+2*ringHdrBytes+DefaultCmdBytes+DefaultReplyBytes) + 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := AttachMPSC(files[0], files[1:]); err == nil {
		t.Fatal("AttachMPSC accepted a mapping larger than its geometry")
	}
}

// TestRingStatsAfterSegmentClose: Stats must stay callable after Close
// unmapped the segment, reporting the final snapshot instead of faulting on
// dead memory.
func TestRingStatsAfterSegmentClose(t *testing.T) {
	s := newTestSegment(t, 1, 0, 0)
	q := s.Cmd()

	done := make(chan struct{})
	go func() {
		var b [1]byte
		io.ReadFull(&laneStream{q: q}, b[:])
		close(done)
	}()
	waitFor(t, func() bool { return q.Stats().Parks >= 1 })
	if _, err := q.Producer(0, RecordFrame).Write([]byte{1}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	<-done

	live := q.Stats()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	final := q.Stats()
	if final.Doorbells != live.Doorbells || final.Suppressed != live.Suppressed {
		t.Fatalf("post-close stats %+v lost the pre-close counters %+v", final, live)
	}
	// And again, for the detached-snapshot path's idempotence.
	if again := q.Stats(); again != final {
		t.Fatalf("second post-close Stats %+v != first %+v", again, final)
	}
}

// TestBatchedWritesSuppressDoorbells: without explicit brackets, back-to-back
// writes against a RUNNING (not parked) consumer should suppress almost every
// bell — the Dekker check sees the consumer awake and skips the syscall.
func TestBatchedWritesSuppressDoorbells(t *testing.T) {
	s := newTestSegment(t, 1, 0, 0)
	q := s.Cmd()
	p := q.Producer(0, RecordFrame)

	const total = 32 * 1024
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := &laneStream{q: q}
		buf := make([]byte, 4096)
		seen := 0
		for seen < total {
			n, err := r.Read(buf)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			seen += n
		}
	}()

	chunk := make([]byte, 256)
	for sent := 0; sent < total; sent += len(chunk) {
		if _, err := p.Write(chunk); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	wg.Wait()

	st := q.Stats()
	if st.Suppressed == 0 {
		t.Fatalf("no suppression across %d writes against a mostly-running consumer: %+v",
			total/len(chunk), st)
	}
	if errs := s.Close(); errs != nil {
		t.Fatalf("Close: %v", errs)
	}
}
