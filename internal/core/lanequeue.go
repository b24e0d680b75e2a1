package core

import (
	"io"
	"sync"
)

// byteQueue is an unbounded in-memory byte conduit between an MPSC demux
// loop and one lane's frame reader. The demux side must never block — a slow
// lane would otherwise stall every other lane sharing the segment (head-of-
// line blocking across sessions) — so writes always append and readers block
// until bytes or closure arrive. The queue is the in-process stand-in for
// the per-session pipe a pipe session gets from the kernel, with the same
// EOF-at-close semantics.
type byteQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	r      int // read cursor into buf
	closed bool
	err    error // terminal read error after drain; io.EOF when closed clean
}

func newByteQueue() *byteQueue {
	q := &byteQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// write appends a copy of b. Appends after close are dropped — the reader
// already has its terminal verdict, and a straggling frame for a released
// lane has no one to go to.
func (q *byteQueue) write(b []byte) {
	if len(b) == 0 {
		return
	}
	q.mu.Lock()
	if !q.closed {
		if q.r == len(q.buf) {
			// Fully drained: reuse the allocation from the start.
			q.buf = q.buf[:0]
			q.r = 0
		} else if q.r*2 > len(q.buf) {
			// Mostly consumed: compact instead of growing, so a reader that
			// lags a frame behind keeps the buffer a small multiple of what
			// it leaves unread.
			n := copy(q.buf, q.buf[q.r:])
			q.buf = q.buf[:n]
			q.r = 0
		}
		q.buf = append(q.buf, b...)
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// Read blocks until bytes are available or the queue is closed, then returns
// as much as fits — the io.Reader the lane's wire.Reader decodes from.
func (q *byteQueue) Read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.r == len(q.buf) {
		if q.closed {
			return 0, q.err
		}
		q.cond.Wait()
	}
	n := copy(p, q.buf[q.r:])
	q.r += n
	return n, nil
}

// Discard drops n buffered bytes, blocking like Read — wire.DrainReader's
// payload-skip fast path.
func (q *byteQueue) Discard(n int) (int, error) {
	total := 0
	q.mu.Lock()
	defer q.mu.Unlock()
	for total < n {
		for q.r == len(q.buf) {
			if q.closed {
				return total, q.err
			}
			q.cond.Wait()
		}
		c := len(q.buf) - q.r
		if c > n-total {
			c = n - total
		}
		q.r += c
		total += c
	}
	return total, nil
}

// SelfBuffered marks the queue for wire.WrapDrain: it is already memory, so
// a drain buffer in front of it would only add a copy.
func (q *byteQueue) SelfBuffered() {}

// close ends the stream. Readers drain what is buffered, then observe err
// (io.EOF when nil). The first close wins; later calls are no-ops.
func (q *byteQueue) close(err error) {
	if err == nil {
		err = io.EOF
	}
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.err = err
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}
