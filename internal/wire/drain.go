package wire

import (
	"io"
	"sync"
	"sync/atomic"
)

// This file holds the syscall-economy seams of the framed protocol: the
// send side's flush-coalescing hook (FlushCoalescer, driven by BatchWriter)
// and the receive side's drain-mode buffer (DrainReader). Together they batch
// submissions, suppress redundant wakeups, and drain everything available
// per wakeup.

// FlushCoalescer is implemented by writers that can defer their peer-wakeup
// decision across a group of writes — a shared-memory lane's producers,
// which ring an eventfd doorbell per publish unless told a batch is in
// progress.
// BatchWriter brackets each group-committed flush with BeginFlush/EndFlush,
// so a batch of N frames costs at most one doorbell instead of N.
//
// Calls come from one flush leader at a time (BatchWriter's leader hand-off
// is mutex-ordered), and brackets do not nest.
type FlushCoalescer interface {
	BeginFlush()
	EndFlush()
}

// SelfBuffered marks stream sources that already amortize wakeups
// internally — each Read drains every available byte without a per-call
// syscall, the way a shared-memory lane serves bytes already demultiplexed
// into memory. Wrapping such a source in a DrainReader would add a
// memcpy and buy nothing, so mux construction skips it.
type SelfBuffered interface {
	SelfBuffered()
}

// drainBufPool recycles DrainReader buffers across sessions and
// connections, the same discipline payloadPool applies to response buffers.
var drainBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, PooledBufSize)
		return &b
	},
}

// DrainReader is a pooled buffered reader for frame streams: each refill
// issues ONE underlying Read for as many bytes as the source has ready, and
// the frame decoder then consumes every complete frame from the buffer
// without another syscall. On a pipe or TCP receive path that turns "one
// read syscall per frame header, another per payload" into "one read
// syscall per wakeup, however many frames it delivered" — the receive-side
// mirror of BatchWriter's group commit.
//
// Reads larger than the buffer bypass it (a direct read into the caller's
// slice), so bulk payloads keep their zero-copy landing. The buffer comes
// from a pool; Release returns it when the stream is done. Not safe for
// concurrent use — it lives under a single receive loop, like the
// wire.Reader it feeds.
type DrainReader struct {
	src  io.Reader
	bp   *[]byte
	buf  []byte // (*bp), cached
	r, w int    // buffered window: buf[r:w]

	fills atomic.Uint64 // underlying Read calls (wakeup proxy)
	bytes atomic.Uint64 // bytes those reads delivered
}

// NewDrainReader returns a drain-mode reader over src with a pooled buffer.
func NewDrainReader(src io.Reader) *DrainReader {
	bp := drainBufPool.Get().(*[]byte)
	return &DrainReader{src: src, bp: bp, buf: *bp}
}

// WrapDrain prepares src for a frame-decoding receive loop: sources that
// already drain internally (SelfBuffered — an shm lane) pass through with a
// nil DrainReader, everything else is wrapped. The caller keeps the
// DrainReader for Stats and Release.
func WrapDrain(src io.Reader) (io.Reader, *DrainReader) {
	if _, ok := src.(SelfBuffered); ok {
		return src, nil
	}
	d := NewDrainReader(src)
	return d, d
}

// DrainStats snapshots the reader's wakeup amortization.
type DrainStats struct {
	Fills uint64 // underlying Read calls issued
	Bytes uint64 // bytes those calls returned
}

// Stats returns cumulative refill counters. Safe to call concurrently with
// the receive loop.
func (d *DrainReader) Stats() DrainStats {
	return DrainStats{Fills: d.fills.Load(), Bytes: d.bytes.Load()}
}

// Buffered reports how many bytes are ready without touching the source.
func (d *DrainReader) Buffered() int { return d.w - d.r }

// Release returns the pooled buffer. Call exactly once, after the last
// read — the receive loop's exit point. The reader is unusable afterwards.
// A nil receiver is a no-op, so `defer dr.Release()` composes with
// WrapDrain's pass-through case.
func (d *DrainReader) Release() {
	if d == nil || d.bp == nil {
		return
	}
	bp := d.bp
	d.bp, d.buf = nil, nil
	d.r, d.w = 0, 0
	drainBufPool.Put(bp)
}

// fill issues one source Read for everything it will give us. Called only
// with an empty window.
func (d *DrainReader) fill() (int, error) {
	n, err := d.src.Read(d.buf)
	if n > 0 {
		d.fills.Add(1)
		d.bytes.Add(uint64(n))
	}
	d.r, d.w = 0, n
	return n, err
}

// Read serves from the buffered window first; an empty window triggers
// either a direct read (when p can absorb at least a full buffer — bulk
// payloads skip the copy) or one drain-mode refill.
func (d *DrainReader) Read(p []byte) (int, error) {
	if d.r < d.w {
		n := copy(p, d.buf[d.r:d.w])
		d.r += n
		return n, nil
	}
	if len(p) >= len(d.buf) {
		n, err := d.src.Read(p)
		if n > 0 {
			d.fills.Add(1)
			d.bytes.Add(uint64(n))
		}
		return n, err
	}
	n, err := d.fill()
	if n > 0 {
		c := copy(p, d.buf[:n])
		d.r = c
		return c, nil
	}
	if err == nil {
		// A zero-byte, nil-error Read is legal for an io.Reader; surface it
		// unchanged and let the caller retry.
		return 0, nil
	}
	return 0, err
}

// Discard drops up to n pending bytes without copying them to the caller,
// serving wire.Reader.DiscardPayload: buffered bytes are skipped in place,
// and an empty window delegates to the source's own Discarder when it has
// one before falling back to a refill.
func (d *DrainReader) Discard(n int) (int, error) {
	if n <= 0 {
		return 0, nil
	}
	if avail := d.w - d.r; avail > 0 {
		if n > avail {
			n = avail
		}
		d.r += n
		return n, nil
	}
	if disc, ok := d.src.(Discarder); ok {
		return disc.Discard(n)
	}
	got, err := d.fill()
	if got > 0 {
		if n > got {
			n = got
		}
		d.r = n
		return n, nil
	}
	return 0, err
}
