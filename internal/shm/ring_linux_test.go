//go:build linux

package shm

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject/leaktest"
)

// Tests for one record ring (queue) of a lane segment as a session sees it:
// a lane's records reassembled into an ordered byte stream.

func newTestSegment(t *testing.T, lanes, cmdBytes, replyBytes int) *MPSCSegment {
	t.Helper()
	s, err := NewMPSC(lanes, cmdBytes, replyBytes)
	if err != nil {
		t.Fatalf("NewMPSC: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// laneStream is the queue's one consumer, reassembling one lane's frame and
// data records into a byte stream the way the lane demultiplexers do. EOS or
// the queue's close ends the stream with io.EOF.
type laneStream struct {
	q    *MPSCQueue
	lane uint16
	buf  []byte
	eos  bool
}

func (s *laneStream) Read(p []byte) (int, error) {
	for len(s.buf) == 0 {
		if s.eos {
			return 0, io.EOF
		}
		err := s.q.Drain(func(lane uint16, kind RecordKind, b []byte) {
			switch {
			case lane != s.lane:
			case kind == RecordEOS:
				s.eos = true
			default:
				s.buf = append(s.buf, b...)
			}
		})
		if err != nil {
			return 0, err
		}
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// dupFiles duplicates the descriptors of files, standing in for the ones a
// sentinel inherits.
func dupFiles(t *testing.T, files []*os.File) []*os.File {
	t.Helper()
	out := make([]*os.File, len(files))
	for i, f := range files {
		fd, err := syscall.Dup(int(f.Fd()))
		if err != nil {
			t.Fatalf("dup: %v", err)
		}
		out[i] = os.NewFile(uintptr(fd), f.Name())
	}
	return out
}

// attachClone maps s a second time through dup'd descriptors, standing in
// for the sentinel's view of the segment. Closing either view closes the
// queues for both — they share the header flags.
func attachClone(t *testing.T, s *MPSCSegment) *MPSCSegment {
	t.Helper()
	files := dupFiles(t, s.ChildFiles())
	att, err := AttachMPSC(files[0], files[1:])
	if err != nil {
		t.Fatalf("AttachMPSC: %v", err)
	}
	t.Cleanup(func() { att.Close() })
	return att
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRingRoundTrip carries a request from the creating (session) view to
// an attached (serving) view on the command ring and the answer back on the
// reply ring, with the lane tag intact both ways.
func TestRingRoundTrip(t *testing.T) {
	s := newTestSegment(t, 2, 0, 0)
	srv := attachClone(t, s)

	frames, _ := s.Cmd().LaneProducers(1)
	msg := []byte("hello, ring")
	if n, err := frames.Write(msg); err != nil || n != len(msg) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	var lane uint16
	var kind RecordKind
	var got []byte
	if err := srv.Cmd().Drain(func(l uint16, k RecordKind, p []byte) {
		lane, kind, got = l, k, append(got, p...)
	}); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if lane != 1 || kind != RecordFrame || !bytes.Equal(got, msg) {
		t.Fatalf("served lane %d kind %d %q, want lane 1 frame %q", lane, kind, got, msg)
	}

	answer := []byte("hello, session")
	if _, err := srv.Reply().Producer(1, RecordFrame).Write(answer); err != nil {
		t.Fatalf("reply Write: %v", err)
	}
	back := make([]byte, len(answer))
	if _, err := io.ReadFull(&laneStream{q: s.Reply(), lane: 1}, back); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if !bytes.Equal(back, answer) {
		t.Fatalf("read %q, want %q", back, answer)
	}
}

// TestRingWraparound pushes a stream across the ring boundary many times
// with mismatched write and read sizes, checking byte-exact delivery.
func TestRingWraparound(t *testing.T) {
	s := newTestSegment(t, 1, minRingBytes, minRingBytes)
	p := s.Reply().Producer(0, RecordFrame)

	const total = 10 * minRingBytes
	src := make([]byte, total)
	rng := rand.New(rand.NewSource(1))
	rng.Read(src)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sent := 0
		for sent < total {
			n := 1 + rng.Intn(3000)
			if sent+n > total {
				n = total - sent
			}
			if _, err := p.Write(src[sent : sent+n]); err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			sent += n
		}
	}()

	r := &laneStream{q: s.Reply()}
	got := make([]byte, 0, total)
	buf := make([]byte, 2731) // deliberately co-prime with the ring size
	for len(got) < total {
		n, err := r.Read(buf)
		if err != nil {
			t.Fatalf("Read after %d bytes: %v", len(got), err)
		}
		got = append(got, buf[:n]...)
	}
	wg.Wait()
	if !bytes.Equal(got, src) {
		t.Fatal("byte stream corrupted across wraparound")
	}
}

// TestRingLargeWrite checks that a single write far larger than the ring
// capacity lands intact, split into records, while a concurrent consumer
// drains.
func TestRingLargeWrite(t *testing.T) {
	s := newTestSegment(t, 1, minRingBytes, minRingBytes)
	p := s.Cmd().Producer(0, RecordData)

	src := make([]byte, 64*minRingBytes)
	rand.New(rand.NewSource(2)).Read(src)

	done := make(chan error, 1)
	go func() {
		_, err := p.Write(src)
		done <- err
	}()

	got := make([]byte, len(src))
	if _, err := io.ReadFull(&laneStream{q: s.Cmd()}, got); err != nil {
		t.Fatalf("ReadFull: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatal("large write corrupted")
	}
}

// TestRingDiscard: a consumer that drops records without copying them still
// retires their spans, and the bytes they leave behind never pose as a
// committed record on a later lap. Every discarded payload byte is 0xFF, so
// each aligned word of it carries the commit bit, and shifting record sizes
// put later laps' headers where earlier laps' payloads were.
func TestRingDiscard(t *testing.T) {
	s := newTestSegment(t, 1, minRingBytes, minRingBytes)
	q := s.Cmd()
	frames, data := q.LaneProducers(0)

	const markers = 200
	go func() {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < markers; i++ {
			if _, err := data.Write(bytes.Repeat([]byte{0xFF}, 1+rng.Intn(900))); err != nil {
				t.Errorf("data Write: %v", err)
				return
			}
			if _, err := frames.Write([]byte{byte(i)}); err != nil {
				t.Errorf("frame Write: %v", err)
				return
			}
		}
	}()

	next := 0
	for next < markers {
		err := q.Drain(func(lane uint16, kind RecordKind, b []byte) {
			switch {
			case kind == RecordData:
				// Discarded.
			case kind != RecordFrame || lane != 0 || len(b) != 1 || b[0] != byte(next):
				t.Fatalf("record %d: lane %d kind %d payload %x, want marker %d", next, lane, kind, b, byte(next))
			default:
				next++
			}
		})
		if err != nil {
			t.Fatalf("Drain after %d markers: %v", next, err)
		}
	}
}

// TestRingCloseSemantics: a consumer drains committed records then sees
// io.EOF; a producer on a closed queue fails with ErrClosed.
func TestRingCloseSemantics(t *testing.T) {
	s := newTestSegment(t, 1, 0, 0)
	q := s.Cmd()
	p := q.Producer(0, RecordFrame)

	if _, err := p.Write([]byte("tail")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	q.close()

	r := &laneStream{q: q}
	got := make([]byte, 16)
	n, err := r.Read(got)
	if err != nil || string(got[:n]) != "tail" {
		t.Fatalf("Read drained %q, %v; want \"tail\", nil", got[:n], err)
	}
	if _, err := r.Read(got); err != io.EOF {
		t.Fatalf("Read after drain = %v, want io.EOF", err)
	}
	if _, err := p.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after close = %v, want ErrClosed", err)
	}
}

// TestRingCloseUnblocksWaiters: Close must release a consumer parked on an
// empty queue and a producer parked on a full one, without goroutine leaks.
func TestRingCloseUnblocksWaiters(t *testing.T) {
	leaktest.Check(t)
	s := newTestSegment(t, 1, minRingBytes, minRingBytes)

	readerDone := make(chan error, 1)
	go func() {
		readerDone <- s.Reply().Drain(func(uint16, RecordKind, []byte) {})
	}()

	writerDone := make(chan error, 1)
	go func() {
		// Overfill the command queue, which has no consumer, so the producer
		// must park for space.
		_, err := s.Cmd().Producer(0, RecordFrame).Write(make([]byte, 2*minRingBytes))
		writerDone <- err
	}()

	// Let both goroutines reach their parks (the parks counter flips when
	// they commit to the doorbell wait).
	waitFor(t, func() bool {
		return s.Reply().Stats().Parks >= 1 && s.Cmd().Stats().Parks >= 1
	})

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-readerDone; err != io.EOF {
		t.Fatalf("parked consumer woke with %v, want io.EOF", err)
	}
	if err := <-writerDone; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked producer woke with %v, want ErrClosed", err)
	}
}

// TestParkedRingBurnsNoCPU pins the spin-then-park contract: once a consumer
// with no traffic has parked, it must stop spinning entirely (the spin
// counter freezes) and wake only when a producer rings the doorbell.
func TestParkedRingBurnsNoCPU(t *testing.T) {
	leaktest.Check(t)
	s := newTestSegment(t, 1, 0, 0)
	q := s.Cmd()

	got := make(chan byte, 1)
	go func() {
		var buf [1]byte
		if _, err := io.ReadFull(&laneStream{q: q}, buf[:]); err != nil {
			t.Errorf("parked read: %v", err)
			close(got)
			return
		}
		got <- buf[0]
	}()

	waitFor(t, func() bool { return q.Stats().Parks >= 1 })

	// Parked now. Any further spinning during this idle window is a busy
	// loop — exactly the CPU burn the doorbell exists to prevent.
	idleStart := q.Stats()
	time.Sleep(100 * time.Millisecond)
	idleEnd := q.Stats()
	if idleEnd.Spins != idleStart.Spins {
		t.Fatalf("parked consumer kept spinning: %d yield iterations during idle window",
			idleEnd.Spins-idleStart.Spins)
	}
	if idleEnd.Parks != idleStart.Parks {
		t.Fatalf("parked consumer re-parked %d times while idle (spurious wakeups)",
			idleEnd.Parks-idleStart.Parks)
	}

	// One record wakes it via the doorbell.
	if _, err := q.Producer(0, RecordFrame).Write([]byte{0x42}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	select {
	case b := <-got:
		if b != 0x42 {
			t.Fatalf("woke with byte %#x, want 0x42", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("doorbell did not wake the parked consumer")
	}
	if bells := q.Stats().Doorbells; bells == 0 {
		t.Fatal("wakeup happened with no doorbell recorded")
	}
}

// TestRingConcurrentStress runs both queues hard under the race detector:
// two lanes per queue, each with its own producer writing randomized chunk
// sizes, and one consumer per queue checking every lane's stream.
func TestRingConcurrentStress(t *testing.T) {
	leaktest.Check(t)
	s := newTestSegment(t, 2, minRingBytes, minRingBytes)

	const total = 128 * 1024
	stream := func(q *MPSCQueue, seed int64, done chan<- error) {
		var srcs [2][]byte
		for lane := range srcs {
			srcs[lane] = make([]byte, total)
			rand.New(rand.NewSource(seed + int64(lane))).Read(srcs[lane])
			go func(lane uint16, src []byte) {
				p := q.Producer(lane, RecordFrame)
				rng := rand.New(rand.NewSource(seed + 10 + int64(lane)))
				for sent := 0; sent < total; {
					n := min(1+rng.Intn(8192), total-sent)
					if _, err := p.Write(src[sent : sent+n]); err != nil {
						done <- err
						return
					}
					sent += n
				}
				done <- nil
			}(uint16(lane), srcs[lane])
		}
		go func() {
			var got [2][]byte
			for len(got[0]) < total || len(got[1]) < total {
				if err := q.Drain(func(lane uint16, _ RecordKind, b []byte) {
					got[lane] = append(got[lane], b...)
				}); err != nil {
					done <- err
					return
				}
			}
			for lane := range got {
				if !bytes.Equal(got[lane], srcs[lane]) {
					done <- errors.New("stream corrupted")
					return
				}
			}
			done <- nil
		}()
	}

	cmdDone := make(chan error, 3)
	replyDone := make(chan error, 3)
	stream(s.Cmd(), 100, cmdDone)
	stream(s.Reply(), 200, replyDone)
	for i := 0; i < 3; i++ {
		if err := <-cmdDone; err != nil {
			t.Fatalf("cmd queue: %v", err)
		}
		if err := <-replyDone; err != nil {
			t.Fatalf("reply queue: %v", err)
		}
	}
}

// TestSegmentCloseIdempotent double-closes with live-but-quiescent queues.
func TestSegmentCloseIdempotent(t *testing.T) {
	s := newTestSegment(t, 1, 0, 0)
	if err := s.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
