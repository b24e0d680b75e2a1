package core

import (
	"errors"
	"io"
	"sync"

	"repro/internal/wire"
)

// Read-ahead window tuning.
const (
	// prefetchMaxBlocks caps the window at this many request-sized blocks,
	// reached after four confirmed sequential reads (2, 4, 8, 16).
	prefetchMaxBlocks = 16
	// prefetchMaxBytes bounds the window regardless of block size, keeping
	// every fill within one pooled payload buffer.
	prefetchMaxBytes = 64 * 1024
)

// prefetcher is the adaptive sliding-window read-ahead shared by the procctl
// sentinel (serving wire requests) and the procctl/thread client transports
// (serving ReadAt calls). It detects sequential access, scales its window
// from two request-sized blocks up to prefetchMaxBlocks on confirmed hits,
// serves reads that land anywhere inside the window, and stops fetching the
// moment the access pattern goes random — a random read costs nothing beyond
// the window already fetched.
//
// A nil *prefetcher disables read-ahead: every method is a safe no-op, so
// call sites need no conditionals. The state is safe for concurrent use;
// reads are served by copying out of the window, never by handing the window
// buffer away, so an in-flight fill can never scribble over served data.
type prefetcher struct {
	// read pulls bytes from the layer below: the dispatcher for the
	// sentinel-side instance, the transport's wire round trip for the
	// client-side instances. It must be safe to call concurrently with
	// serve/readAt (both run unlocked reads).
	read func(p []byte, off int64) (int, error)
	// async runs fills on their own goroutine — the client-side mode, where
	// the fill round trip overlaps the application consuming the data it
	// just got. The sentinel fills synchronously on its serving worker.
	async bool

	mu      sync.Mutex
	gen     uint64 // bumped by invalidate; discards in-flight fills
	off     int64  // window start offset
	data    []byte // window contents
	eof     bool   // window ends at end of file
	valid   bool
	expect  int64 // offset the next sequential read would use
	streak  int   // consecutive sequential reads observed
	filling bool  // a fill is in flight; don't start another

	// The in-flight fill's coverage [fillBase, fillEnd) and completion
	// signal. A read that misses the window but lands inside the fill's
	// range waits for the fill instead of issuing its own round trip — on
	// a pipelined transport the fill is always one RTT behind the next
	// sequential read, and without the wait every read would pay its own
	// RPC plus the (wasted) fill.
	fillBase int64
	fillEnd  int64
	fillDone chan struct{}
}

// newPrefetcher returns a prefetcher pulling misses and fills through read.
func newPrefetcher(read func(p []byte, off int64) (int, error), async bool) *prefetcher {
	return &prefetcher{read: read, async: async}
}

// windowTarget returns how many bytes ahead of the next expected read the
// window should hold, given the streak and the current request size.
func windowTarget(streak, blockSize int) int {
	if streak <= 0 || blockSize <= 0 {
		return 0
	}
	// Start at two blocks so the very first fill already covers the read
	// after next, then double per confirmed sequential read. The shift must
	// be capped BEFORE it reaches the int width: a long streak would
	// otherwise overflow 1<<streak to zero and collapse the window.
	shift := streak
	if shift > 4 { // 1<<4 == prefetchMaxBlocks
		shift = 4
	}
	blocks := 1 << shift
	if blocks > prefetchMaxBlocks {
		blocks = prefetchMaxBlocks
	}
	target := blocks * blockSize
	if target > prefetchMaxBytes {
		target = prefetchMaxBytes
	}
	if target < blockSize {
		target = blockSize
	}
	return target
}

// serve answers a wire read request from the window — the sentinel-side hit
// path. It reports whether resp was filled; on a hit resp.Data is backed by
// a pooled buffer and the returned release must be called after resp ships.
// A read overlapping the window is served when the window covers it fully,
// or up to end of file when the window ends there (including the zero-byte
// read past EOF).
func (p *prefetcher) serve(req *wire.Request, resp *wire.Response) (func(), bool) {
	if p == nil {
		return nil, false
	}
	n := int(req.N)
	if n < 0 || n > wire.MaxPayload {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.valid && req.Off >= p.off {
			end := p.off + int64(len(p.data))
			avail := end - req.Off
			if avail > int64(n) {
				avail = int64(n)
			}
			switch {
			case avail < 0 && !p.eof, avail >= 0 && avail < int64(n) && !p.eof:
				// More file exists beyond the window; a partial answer
				// would turn one read into two. Fall through to waiting
				// for an in-flight fill or reading through whole.
			default:
				if avail < 0 {
					avail = 0 // read entirely past EOF
				}
				buf, release := wire.GetBuf(int(avail))
				if avail > 0 {
					copy(buf, p.data[req.Off-p.off:])
				}
				resp.Seq = req.Seq
				resp.Status = wire.StatusOK
				resp.N = avail
				resp.Data = buf
				// Only a SHORT read reports EOF, matching os.File.ReadAt
				// (and the dispatcher): a full read ending exactly at end
				// of file is a plain success.
				if avail < int64(n) {
					resp.Status = wire.StatusEOF
				}
				return release, true
			}
		}
		if !p.waitForFill(req.Off, int64(n)) {
			return nil, false
		}
	}
}

// waitForFill blocks until the in-flight fill covering [off, off+n) lands,
// reporting false immediately when no such fill exists. Called — and
// returning — with p.mu held.
func (p *prefetcher) waitForFill(off, n int64) bool {
	if !p.filling || off < p.fillBase || off+n > p.fillEnd {
		return false
	}
	done := p.fillDone
	p.mu.Unlock()
	<-done
	p.mu.Lock()
	return true
}

// readAt answers a client ReadAt from the window — the client-side hit path.
// It reports whether dst was filled; a miss leaves dst untouched and the
// caller reads through. On a short fill at end of file it returns io.EOF,
// matching os.File.ReadAt.
func (p *prefetcher) readAt(dst []byte, off int64) (int, error, bool) {
	if p == nil {
		return 0, nil, false
	}
	p.mu.Lock()
	for {
		if p.valid && off >= p.off {
			end := p.off + int64(len(p.data))
			avail := end - off
			if avail >= int64(len(dst)) || p.eof {
				n := 0
				if avail > 0 {
					n = copy(dst, p.data[off-p.off:])
				}
				eof := p.eof && off+int64(n) >= end
				p.mu.Unlock()
				p.afterRead(off, n, len(dst), eof)
				if n < len(dst) {
					return n, io.EOF, true
				}
				return n, nil, true
			}
		}
		if !p.waitForFill(off, int64(len(dst))) {
			p.mu.Unlock()
			return 0, nil, false
		}
	}
}

// afterRead records one completed read — wherever it was served from — and
// decides whether to extend the window. off/n are the read's position and
// actual length, blockSize the requested length (they differ at EOF), eof
// whether the read hit end of file. Unconsumed window content ahead of the
// next expected read is preserved; the fill fetches only what is missing.
func (p *prefetcher) afterRead(off int64, n, blockSize int, eof bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	// Sequential detection tolerates out-of-order arrivals: concurrent
	// clients striding disjoint blocks over one handle form a single
	// globally-sequential stream whose reads land within a few blocks of the
	// frontier, not exactly on it. Anything inside one maximum window of
	// expect keeps the streak (and never drags the frontier backward); a
	// jump beyond that is random access — reset and relocate.
	slack := int64(prefetchMaxBlocks * blockSize)
	if slack > prefetchMaxBytes {
		slack = prefetchMaxBytes
	}
	delta := off - p.expect
	switch {
	case n > 0 && delta >= -slack && delta <= slack:
		p.streak++
		if e := off + int64(n); e > p.expect {
			p.expect = e
		}
	case delta != 0:
		p.streak = 0
		p.expect = off + int64(n)
	}
	target := windowTarget(p.streak, blockSize)
	if target == 0 || eof || p.filling {
		p.mu.Unlock()
		return
	}
	// How much of the wanted range [expect, expect+target) the window
	// already holds, and whether it is known to end at EOF.
	keep := 0
	if p.valid && p.expect >= p.off && p.expect <= p.off+int64(len(p.data)) {
		keep = int(p.off + int64(len(p.data)) - p.expect)
		if p.eof {
			p.mu.Unlock()
			return // window already reaches end of file
		}
	}
	if 2*keep >= target {
		// Refill only once the runway has dropped below half the target:
		// without this hysteresis a full window would trigger a sliver-sized
		// refill after every read, paying one round trip per operation for a
		// handful of new bytes — the exact cost read-ahead exists to remove.
		p.mu.Unlock()
		return
	}
	buf := make([]byte, target)
	if keep > 0 {
		copy(buf, p.data[p.expect-p.off:])
	}
	base := p.expect
	gen := p.gen
	p.filling = true
	p.fillBase = base
	p.fillEnd = base + int64(target)
	p.fillDone = make(chan struct{})
	done := p.fillDone
	p.mu.Unlock()

	fill := func() {
		rn, err := p.read(buf[keep:], base+int64(keep))
		p.mu.Lock()
		p.filling = false
		if p.gen == gen && (err == nil || errors.Is(err, io.EOF)) {
			p.off = base
			p.data = buf[:keep+rn]
			p.eof = errors.Is(err, io.EOF)
			p.valid = true
		}
		close(done) // wake reads parked on this fill's range
		p.mu.Unlock()
	}
	if p.async {
		go fill()
	} else {
		fill()
	}
}

// invalidate discards the window and any in-flight fill (after writes or
// truncation). The sequential-detection state survives, so a read-modify-
// write sweep keeps its window scaling.
func (p *prefetcher) invalidate() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.gen++
	p.valid = false
	p.eof = false
	p.data = nil
	p.mu.Unlock()
}

// quiesce waits for an in-flight fill to land, so the caller can close the
// layer below without cutting a fill off mid-exchange. The caller must keep
// further reads out (Handle.Close holds every operation off the transport),
// or a later read could start another fill.
func (p *prefetcher) quiesce() {
	if p == nil {
		return
	}
	p.mu.Lock()
	filling, done := p.filling, p.fillDone
	p.mu.Unlock()
	if filling {
		<-done
	}
}
