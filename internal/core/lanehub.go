package core

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/shm"
	"repro/internal/vfs"
)

// The lane plane serves every transport=shm session: a session runs on a
// lane — a tagged slice of the shared command/reply queues — of a shared-
// memory segment served by one sentinel subprocess. The hub hands each new
// session of a manifest a free lane on one of its live segments and spawns a
// fresh segment and sentinel only when every lane is taken. A segment has
// shmlanes lanes, one by default: a private carrier and sentinel per
// session. A segment retires, its sentinel reaped, when its last session
// closes — unless the manifest sets pool=N and its file has fewer than N
// idle segments, in which case it stays booted so the next open claims a
// lane instead of spawning.

// laneHub is the process-wide registry of live lane segments, keyed by
// manifest path so sessions of different active files never share a
// sentinel.
type laneHub struct {
	mu   sync.Mutex
	segs map[string][]*laneSegment
}

var lanePlane = &laneHub{segs: make(map[string][]*laneSegment)}

// acquire hands out one lane: the first free lane of a live segment for this
// manifest, or a lane of a freshly spawned segment when all are full. The
// returned reason is non-empty (with a nil conn) when the plane cannot serve
// and the caller should fall back to pipes. The hub lock covers only the
// registry, segment creation and the sentinel's start: the caller's OpOpen
// handshake is what waits for the sentinel to boot, outside the lock, so
// opens of other files never queue behind a boot.
func (h *laneHub) acquire(path string, m vfs.Manifest, o sessionOptions) (*laneConn, string) {
	if !shm.Supported() {
		return nil, "platform does not support shared-memory segments"
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	live := h.segs[path][:0]
	var conn *laneConn
	for _, ls := range h.segs[path] {
		if ls.isDead() {
			continue // reaped by its death hook; drop from the registry
		}
		live = append(live, ls)
		if conn == nil {
			conn = ls.claim()
		}
	}
	h.segs[path] = live
	if conn != nil {
		return conn, ""
	}
	ls, err := spawnLaneSegment(path, m, o.lanes)
	if err != nil {
		return nil, fmt.Sprintf("lane segment spawn failed: %v", err)
	}
	ls.pool = o.pool
	conn = ls.claim()
	if conn == nil {
		ls.shutdown()
		return nil, "fresh lane segment refused its first claim"
	}
	h.segs[path] = append(h.segs[path], ls)
	return conn, ""
}

// release hands c's lane back. When no session holds a lane on the segment
// any more, it is kept if its file has fewer than pool other such segments;
// otherwise it leaves the registry under the hub lock, so no concurrent open
// can claim on it, and is shut down — its sentinel reaped — before release
// returns. Segments without a session count toward pool even while a lane
// still drains, so concurrent closes never keep more than pool of them.
func (h *laneHub) release(c *laneConn) {
	ls := c.ls
	h.mu.Lock()
	ls.release(c)
	claimed, _ := ls.seg.LaneCounts()
	retire := claimed == 0 && (ls.pool == 0 || ls.isDead() || h.unclaimed(ls.path, ls, false) >= ls.pool)
	if retire {
		h.segs[ls.path] = slices.DeleteFunc(h.segs[ls.path], func(s *laneSegment) bool { return s == ls })
		if len(h.segs[ls.path]) == 0 {
			delete(h.segs, ls.path)
		}
	}
	h.mu.Unlock()
	if retire {
		ls.shutdown()
	}
}

// unclaimed counts path's live segments other than except on which no
// session holds a lane; settled also excludes those with a lane still
// draining a released session's replies. Called with h.mu held.
func (h *laneHub) unclaimed(path string, except *laneSegment, settled bool) int {
	n := 0
	for _, ls := range h.segs[path] {
		if ls == except || ls.isDead() {
			continue
		}
		if claimed, draining := ls.seg.LaneCounts(); claimed == 0 && (!settled || draining == 0) {
			n++
		}
	}
	return n
}

// drain tears down the hub's segments — all of them, or with idleOnly just
// those no session holds a lane on; sessions still open on a torn-down
// segment observe the closure as a transport failure.
func (h *laneHub) drain(idleOnly bool) {
	h.mu.Lock()
	var gone []*laneSegment
	for path, segs := range h.segs {
		segs = slices.DeleteFunc(segs, func(ls *laneSegment) bool {
			if idleOnly {
				if claimed, _ := ls.seg.LaneCounts(); claimed > 0 {
					return false
				}
			}
			gone = append(gone, ls)
			return true
		})
		if h.segs[path] = segs; len(segs) == 0 {
			delete(h.segs, path)
		}
	}
	h.mu.Unlock()
	for _, ls := range gone {
		ls.shutdown()
	}
}

// DrainSharedSegments retires every shm lane segment and reaps their
// sentinel children. Sessions still multiplexed on one fail as if the
// sentinel died. New opens spawn fresh segments.
func DrainSharedSegments() { lanePlane.drain(false) }

// DrainSentinelPool retires every lane segment no session holds a lane on —
// the warm segments pool=N keeps — and reaps their sentinels. Segments
// serving open sessions are left alone.
func DrainSentinelPool() { lanePlane.drain(true) }

// IdleSentinels reports how many warm lane segments the manifest at path
// has: live segments with no lane claimed or still draining, so the next
// open claims a lane on one without spawning.
func IdleSentinels(path string) int {
	lanePlane.mu.Lock()
	defer lanePlane.mu.Unlock()
	return lanePlane.unclaimed(path, nil, true)
}

// laneSegment is one shared segment: the MPSC mapping, the sentinel child
// serving its lanes, and the demux loop routing reply records to sessions.
type laneSegment struct {
	path string
	pool int // idle segments of path kept booted (param "pool")
	seg  *shm.MPSCSegment
	proc *sentinelProc

	// routes fans reply records out to sessions lock-free on the hot path;
	// mu guards the lane lifecycle (claim, release, EOS bookkeeping) and the
	// dead flag ordering against teardown.
	routes [shm.MaxLanes]atomic.Pointer[laneConn]

	mu   sync.Mutex
	eos  [shm.MaxLanes]bool // reply-EOS arrived while the lane was still claimed
	dead bool
}

// spawnLaneSegment creates one shared segment, starts its sentinel child,
// and starts the demux loop.
func spawnLaneSegment(path string, m vfs.Manifest, lanes int) (*laneSegment, error) {
	seg, err := shm.NewMPSC(lanes, 0, 0)
	if err != nil {
		return nil, err
	}
	proc, err := spawnSentinel(path, m, StrategyProcCtl, seg)
	if err != nil {
		seg.Close()
		return nil, err
	}
	ls := &laneSegment{path: path, seg: seg, proc: proc}
	proc.watch(func(waitErr error) { ls.fail(sentinelDeath(waitErr)) })
	go ls.demux()
	return ls, nil
}

func (ls *laneSegment) isDead() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.dead
}

// claim allocates one lane and registers its session conduit.
func (ls *laneSegment) claim() *laneConn {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.dead {
		return nil
	}
	lane, ok := ls.seg.ClaimLane()
	if !ok {
		return nil
	}
	frames, data := ls.seg.Cmd().LaneProducers(lane)
	c := &laneConn{ls: ls, lane: lane, frames: frames, data: data, respQ: newByteQueue()}
	ls.eos[lane] = false
	ls.routes[lane].Store(c)
	return c
}

// release returns a session's lane. The lane parks in draining until the
// serving side's reply-EOS confirms no more of its bytes can arrive; only
// then can a successor session reuse the lane without inheriting stale
// replies.
func (ls *laneSegment) release(c *laneConn) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.routes[c.lane].Load() != c {
		return
	}
	ls.routes[c.lane].Store(nil)
	ls.seg.ReleaseLane(c.lane)
	if ls.eos[c.lane] {
		ls.eos[c.lane] = false
		ls.seg.QuiesceLane(c.lane)
	}
}

// demux is the segment's single consumer: it drains the reply queue and
// routes each record to its lane's session. A reply stream the sentinel
// corrupted fails the segment as its death would.
func (ls *laneSegment) demux() {
	reply := ls.seg.Reply()
	for {
		err := reply.Drain(func(lane uint16, kind shm.RecordKind, payload []byte) {
			switch kind {
			case shm.RecordFrame:
				// Hot path: lock-free route lookup, one copy into the
				// session's response queue. A cleared route (released
				// lane) drops the straggler on the floor.
				if c := ls.routes[lane].Load(); c != nil {
					c.respQ.write(payload)
				}
			case shm.RecordEOS:
				ls.laneQuiesced(lane)
			}
		})
		if errors.Is(err, shm.ErrCorrupt) {
			ls.fail(err)
		}
		if err != nil {
			return // segment closed (teardown, death hook or corruption)
		}
	}
}

// laneQuiesced handles the serving side's reply-EOS for a lane: the child's
// lane server exited and flushed everything, so no further bytes of this
// tenancy can arrive. If the session already released the lane it becomes
// reusable now; if the session still holds it (the server quit first — open
// failure, desync shutdown), the response stream ends so the session's mux
// observes EOF instead of hanging, and release() frees the lane later.
func (ls *laneSegment) laneQuiesced(lane uint16) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if c := ls.routes[lane].Load(); c != nil {
		c.respQ.close(nil)
		ls.eos[lane] = true
		return
	}
	ls.seg.QuiesceLane(lane)
	ls.eos[lane] = false
}

// fail is the death path: poison every session multiplexed on the segment,
// then tear the mapping down (which also wakes the demux loop and any
// parked producers). The hub drops the segment at its next acquire.
func (ls *laneSegment) fail(err error) {
	ls.mu.Lock()
	if ls.dead {
		ls.mu.Unlock()
		return
	}
	ls.dead = true
	var conns []*laneConn
	for i := range ls.routes {
		if c := ls.routes[i].Load(); c != nil {
			conns = append(conns, c)
		}
	}
	ls.mu.Unlock()
	ls.seg.Close()
	ls.proc.closeFiles()
	for _, c := range conns {
		c.respQ.close(err)
		if f := c.onFail.Load(); f != nil {
			(*f)(err)
		}
	}
}

// shutdown is the deliberate teardown (last session closed, hub drain,
// failed boot): closing the segment delivers EOF to the child's intake and
// closing the pipes trips its watchdog, so it exits and is reaped.
func (ls *laneSegment) shutdown() {
	ls.fail(errors.New("core: shared lane segment drained"))
	ls.proc.stop()
}

// laneConn is one session's conduit over a lane segment. Command frames and
// posted write payloads ride the shared command queue as records tagged with
// the session's lane (the two producers share one flush bracket, so a batch
// rings one doorbell); responses arrive from the demux loop through the
// session's private byte queue.
type laneConn struct {
	ls     *laneSegment
	lane   uint16
	frames *shm.Producer
	data   *shm.Producer
	respQ  *byteQueue
	once   sync.Once

	// onFail lets the owning transport poison its mux the moment the
	// sentinel dies — the per-session fan-out of the segment's death hook.
	onFail atomic.Pointer[func(error)]
}

var _ sessionConn = (*laneConn)(nil)

func (c *laneConn) Ctrl() io.Writer         { return c.frames }
func (c *laneConn) Data() io.Writer         { return c.data }
func (c *laneConn) Resp() io.Reader         { return c.respQ }
func (c *laneConn) setOnFail(f func(error)) { c.onFail.Store(&f) }
func (c *laneConn) exited() (error, bool)   { return c.ls.proc.exited() }
func (c *laneConn) carrier() string         { return "shm" }

// stats reports the segment's doorbell and descriptor economy. Counters and
// descriptors are per segment, not per session — SegmentSessions says how
// many ways they are split.
func (c *laneConn) stats() DataPlaneStats {
	s := DataPlaneStats{SegmentFDs: 5, DoorbellFDs: 4} // segment file + four doorbells
	for _, q := range []*shm.MPSCQueue{c.ls.seg.Cmd(), c.ls.seg.Reply()} {
		qs := q.Stats()
		s.Doorbells += qs.Doorbells
		s.Suppressed += qs.Suppressed
	}
	claimed, draining := c.ls.seg.LaneCounts()
	s.SegmentSessions = claimed + draining
	return s
}

// Close ends the session's tenancy of the lane: an in-band EOS tells the
// child's lane server to finish (it answers with its own reply-EOS, which
// quiesces the lane), the response queue releases the mux receive loop, and
// the lane goes back to the hub, which retires the segment if this was its
// last session and pool does not keep it warm.
func (c *laneConn) Close() error {
	c.once.Do(func() {
		c.ls.seg.Cmd().SendEOS(c.lane) // best-effort; the segment may be dead
		c.respQ.close(nil)
		lanePlane.release(c)
	})
	return nil
}
