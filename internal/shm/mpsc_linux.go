//go:build linux

package shm

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// One segment multiplexes up to MaxLanes sessions over a single pair of
// record queues, a single mapping, and a single doorbell budget — five fds
// total (the backing file plus four eventfds), however many sessions share
// it. Layout, every region cache-line aligned:
//
//	[0, 4096)                    control region (magic, version, geometry, lane table)
//	[4096, 4096+ringHdrBytes)    cmd queue header
//	[..., ... + cmdCap)          cmd queue data   (sessions → serving side)
//	[..., ... + ringHdrBytes)    reply queue header
//	[..., ... + replyCap)        reply queue data (serving side → sessions)
//
// The queues carry framed records: producers CAS-claim a contiguous byte
// span, copy their payload, and publish it by storing the record header word
// last. The single consumer walks records in claim order, which is what
// serializes N sessions' frames into one stream the serving side can
// demultiplex by lane. Capacities are powers of two so cursor positions
// reduce with a mask, and the cursors themselves are free-running uint64 byte
// counts (head = bytes claimed, tail = bytes consumed) — the empty/full
// ambiguity of wrapped indices never arises and 2^64 bytes outlives any
// session.
const (
	segMagic     = 0x41465348 // "AFSH" — active-file shared memory
	mpscVersion  = 4          // v4: control region with geometry + lane table, two MPSC record queues
	segHdrBytes  = 4096
	ringHdrBytes = 512
	minRingBytes = 4096
)

// Spin calibration. On a shared core the peer cannot make progress while we
// burn it, so every spin iteration yields the CPU with sched_yield — that is
// what turns the spin from a pure waste into "run the peer, then re-check".
// Every goschedEvery-th iteration yields to the Go scheduler instead, so
// same-process goroutines (mux callers, child workers) are not starved of
// the P under GOMAXPROCS=1; it is kept rare because an idle-runqueue Gosched
// costs a netpoll probe. After spinBudget fruitless iterations the waiter
// parks on its doorbell and burns nothing.
const (
	spinBudget   = 96
	goschedEvery = 8
)

// Raw syscall numbers, named for the call sites. memfd_create postdates the
// frozen syscall package, so its number is spelled per-arch in
// memfd_*.go; zero means "no memfd, use a temp file".
const eventfdTrap = syscall.SYS_EVENTFD2

// Lane states in the control region's lane table. A lane is claimed by the
// session side, released to draining when the session closes (the serving
// side may still be flushing its replies), and quiesced back to free when
// the serving side confirms the lane's streams are done.
const (
	laneFree     = 0
	laneClaimed  = 1
	laneDraining = 2
)

// RecordKind tags one record's stream. Frames and Data mirror the procctl
// carrier split: command/response frames versus posted bulk payloads. EOS is
// a zero-payload stream terminal — the lane's half-close, in-band so it
// cannot pass earlier bytes.
type RecordKind uint8

const (
	RecordFrame RecordKind = 0
	RecordData  RecordKind = 1
	RecordEOS   RecordKind = 2
	recordPad   RecordKind = 3 // skip-to-end filler; never reaches Drain callbacks
)

// Record header word: bit 63 commits the record (a zero word is an
// unpublished claim — the consumer pre-zeroes every slot it retires, see
// Drain), bits 56..58 carry the kind, bits 32..47 the lane, bits 0..31 the
// payload length (for pads: the total bytes to skip).
const (
	recCommit    = uint64(1) << 63
	recKindShift = 56
	recLaneShift = 32
	recLenMask   = uint64(1)<<32 - 1
	recAlign     = 8
)

func recHeader(kind RecordKind, lane uint16, n int) uint64 {
	return recCommit | uint64(kind)<<recKindShift | uint64(lane)<<recLaneShift | uint64(uint32(n))
}

func recDecode(w uint64) (kind RecordKind, lane uint16, n uint64) {
	return RecordKind(w >> recKindShift & 0x7), uint16(w >> recLaneShift), w & recLenMask
}

func align8(n uint64) uint64 { return (n + recAlign - 1) &^ (recAlign - 1) }

// mpscSegHdr is the segment's control region: identity, geometry, and the
// lane table. Lane words are written by the session side (claim/release) and
// read by both; each spends its word, not a line — lane transitions are
// cold-path (open/close), not hot-path.
type mpscSegHdr struct {
	magic   uint32
	version uint32
	_       [56]byte
	nlanes  uint32
	_       [60]byte
	cmdCap  uint64
	repCap  uint64
	_       [48]byte
	lanes   [MaxLanes]atomic.Uint32
}

// mpscHdr is one record queue's shared control block, laid out so every
// mutable word (or same-owner word group) owns a cache line: sharing a line
// would make each side's cursor store invalidate the other's hot loop. head
// is CAS-advanced by any producer; tail is written only by the consumer.
// wparked is a *count* of parked producers: several producers can park on
// the one space bell, and the consumer must know someone — anyone — still
// waits. The doorbell counters live here, not in process-local memory,
// because the bells of one queue are rung by different processes per
// direction and the observer (the parent) wants the whole economy.
type mpscHdr struct {
	head    atomic.Uint64 // bytes claimed; CAS-advanced by producers
	_       [56]byte
	tail    atomic.Uint64 // bytes consumed; written by the consumer only
	_       [56]byte
	rparked atomic.Uint32 // consumer is (about to be) parked on the data bell
	_       [60]byte
	wparked atomic.Uint32 // count of producers parked on the space bell
	_       [60]byte
	closed  atomic.Uint32
	_       [60]byte
	pbells  atomic.Uint64 // data doorbells rung by producers
	psupp   atomic.Uint64 // producer wakes suppressed (consumer running or flush-coalesced)
	_       [48]byte
	cbells  atomic.Uint64 // space doorbells rung by the consumer
	csupp   atomic.Uint64 // consumer wakes suppressed (no producer parked)
	_       [48]byte
}

// Both shared structures must fit their reserved regions; a negative array
// length here fails the build the moment either outgrows its slot.
var (
	_ [segHdrBytes - int(unsafe.Sizeof(mpscSegHdr{}))]byte
	_ [ringHdrBytes - int(unsafe.Sizeof(mpscHdr{}))]byte
)

// MPSCQueue is one direction of the shared segment: many producers, one
// consumer, framed records over mapped memory. Producers may live in many
// goroutines of one process (the session side) or one goroutine each; the
// consumer is exactly one goroutine in the other process.
//
// Two doorbells serve the two wait directions: producers ring dataBell to
// wake a consumer parked for records, the consumer rings spaceBell to wake
// producers parked for room. They must be distinct — with a single shared
// bell, a parking consumer could swallow the token meant for a space-starved
// producer and strand both sides.
type MPSCQueue struct {
	name  string
	hdr   *mpscHdr
	data  []byte
	mask  uint64
	lanes uint32 // the segment's lane count, copied at assembly: Drain rejects records tagged beyond it

	dataBell  *os.File // producers → consumer: "records available"
	spaceBell *os.File // consumer → producers: "space available"

	localClosed atomic.Bool
	inflight    atomic.Int64 // queue ops in this process, gating munmap

	// detached is set (after snapshotting the shared counters below) when the
	// segment starts tearing down, so Stats never chases hdr into an
	// unmapped page.
	detached   atomic.Bool
	finalBells atomic.Uint64
	finalSupp  atomic.Uint64

	parks atomic.Uint64
	spins atomic.Uint64
}

// FlushState is one producer group's doorbell-coalescing bracket state
// (wire.FlushCoalescer). It is NOT shared across sessions — each lane's
// producers own one. Plain fields, single-writer: only the batch leader (or
// the lane's lone writer) touches them, and the consumer never reads them.
type FlushState struct {
	deferWake   bool
	wakePending bool
}

// Producer submits records for one lane and kind. Safe for one goroutine at
// a time per Producer; distinct Producers (even of the same lane) may run
// concurrently — that is the MPSC in the name.
type Producer struct {
	q    *MPSCQueue
	lane uint16
	kind RecordKind
	fs   *FlushState
}

// MPSCSegment is one process's view of a shared mapping and its doorbells.
// The parent creates it (NewMPSC) and passes its files to the sentinel,
// which attaches (AttachMPSC); both ends hold equal views afterwards.
type MPSCSegment struct {
	mem    []byte
	file   *os.File
	hdr    *mpscSegHdr
	cmd    *MPSCQueue
	reply  *MPSCQueue
	owner  bool // created here (claims lanes) vs attached (serves them)
	closed atomic.Bool

	// laneSessions counts lanes this view claimed and has not released, so
	// Close can settle the process-wide fdLaneSessions gauge for lanes whose
	// release raced (or never happened) against teardown.
	laneSessions atomic.Int64
}

// Supported reports whether this platform can host the transport.
func Supported() bool { return true }

// NewMPSC creates a fresh shared segment for up to lanes sessions (0 means
// MaxLanes) with the given queue capacities (0 means the defaults), plus its
// four doorbell eventfds. The backing file is a memfd when the kernel has
// one, else an unlinked temp file; either way nothing persists past the
// processes holding it.
func NewMPSC(lanes, cmdBytes, replyBytes int) (*MPSCSegment, error) {
	if lanes == 0 {
		lanes = MaxLanes
	}
	if lanes < 1 || lanes > MaxLanes {
		return nil, fmt.Errorf("shm: %d lanes (want 1..%d)", lanes, MaxLanes)
	}
	if cmdBytes <= 0 {
		cmdBytes = DefaultCmdBytes
	}
	if replyBytes <= 0 {
		replyBytes = DefaultReplyBytes
	}
	cmdCap := ceilPow2(cmdBytes)
	repCap := ceilPow2(replyBytes)

	f, err := newSegmentFile()
	if err != nil {
		return nil, err
	}
	total := segHdrBytes + 2*ringHdrBytes + cmdCap + repCap
	if err := f.Truncate(int64(total)); err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: size segment: %w", err)
	}
	mem, err := syscall.Mmap(int(f.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("shm: map segment: %w", err)
	}
	hdr := (*mpscSegHdr)(unsafe.Pointer(&mem[0]))
	hdr.magic = segMagic
	hdr.version = mpscVersion
	hdr.nlanes = uint32(lanes)
	hdr.cmdCap = uint64(cmdCap)
	hdr.repCap = uint64(repCap)

	bells := make([]*os.File, 4)
	for i := range bells {
		b, err := newEventFD()
		if err != nil {
			for _, open := range bells[:i] {
				open.Close()
			}
			syscall.Munmap(mem)
			f.Close()
			return nil, err
		}
		bells[i] = b
	}
	return assembleMPSC(f, mem, hdr, bells, true), nil
}

// AttachMPSC builds the attaching (serving) process's view from the
// inherited files: the segment file plus the four doorbells in ChildFiles
// order. The geometry comes from the control region, validated against the
// mapping size, so a corrupt or foreign segment is rejected before any
// cursor is trusted. AttachMPSC takes ownership of the files on success and
// on failure.
func AttachMPSC(seg *os.File, bells []*os.File) (*MPSCSegment, error) {
	closeAll := func() {
		seg.Close()
		for _, b := range bells {
			if b != nil {
				b.Close()
			}
		}
	}
	st, err := seg.Stat()
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("shm: stat segment: %w", err)
	}
	total := int(st.Size())
	if total < segHdrBytes+2*ringHdrBytes+2*minRingBytes {
		closeAll()
		return nil, fmt.Errorf("shm: mpsc segment too small (%d bytes)", total)
	}
	mem, err := syscall.Mmap(int(seg.Fd()), 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("shm: map segment: %w", err)
	}
	hdr := (*mpscSegHdr)(unsafe.Pointer(&mem[0]))
	switch {
	case hdr.magic != segMagic:
		err = fmt.Errorf("shm: bad segment magic %#x", hdr.magic)
	case hdr.version != mpscVersion:
		err = fmt.Errorf("shm: segment version %d, want %d", hdr.version, mpscVersion)
	case hdr.nlanes < 1 || hdr.nlanes > MaxLanes:
		err = fmt.Errorf("shm: mpsc segment declares %d lanes", hdr.nlanes)
	case len(bells) != 4:
		err = fmt.Errorf("shm: mpsc attach wants 4 doorbells, got %d", len(bells))
	case hdr.cmdCap < minRingBytes || hdr.cmdCap&(hdr.cmdCap-1) != 0 ||
		hdr.repCap < minRingBytes || hdr.repCap&(hdr.repCap-1) != 0:
		err = fmt.Errorf("shm: mpsc queue capacities %d/%d not powers of two", hdr.cmdCap, hdr.repCap)
	case uint64(total) != uint64(segHdrBytes+2*ringHdrBytes)+hdr.cmdCap+hdr.repCap:
		err = fmt.Errorf("shm: mpsc segment geometry wants %d bytes, mapped %d",
			uint64(segHdrBytes+2*ringHdrBytes)+hdr.cmdCap+hdr.repCap, total)
	}
	if err != nil {
		syscall.Munmap(mem)
		closeAll()
		return nil, err
	}
	return assembleMPSC(seg, mem, hdr, bells, false), nil
}

// assembleMPSC carves the mapping into its two queues. Doorbell order is the
// ChildFiles contract: [cmd data, cmd space, reply data, reply space].
func assembleMPSC(f *os.File, mem []byte, hdr *mpscSegHdr, bells []*os.File, owner bool) *MPSCSegment {
	cmdOff := uint64(segHdrBytes)
	repOff := cmdOff + ringHdrBytes + hdr.cmdCap
	s := &MPSCSegment{
		mem: mem, file: f, hdr: hdr, owner: owner,
		cmd: &MPSCQueue{
			name:     "cmd",
			hdr:      (*mpscHdr)(unsafe.Pointer(&mem[cmdOff])),
			data:     mem[cmdOff+ringHdrBytes : cmdOff+ringHdrBytes+hdr.cmdCap],
			mask:     hdr.cmdCap - 1,
			lanes:    hdr.nlanes,
			dataBell: bells[0], spaceBell: bells[1],
		},
		reply: &MPSCQueue{
			name:     "reply",
			hdr:      (*mpscHdr)(unsafe.Pointer(&mem[repOff])),
			data:     mem[repOff+ringHdrBytes : repOff+ringHdrBytes+hdr.repCap],
			mask:     hdr.repCap - 1,
			lanes:    hdr.nlanes,
			dataBell: bells[2], spaceBell: bells[3],
		},
	}
	fdSegments.Add(1)
	fdSegmentFiles.Add(1)
	fdDoorbells.Add(int64(len(bells)))
	return s
}

// Cmd returns the command-direction queue (sessions produce, server consumes).
func (s *MPSCSegment) Cmd() *MPSCQueue { return s.cmd }

// Reply returns the reply-direction queue (server produces, sessions consume).
func (s *MPSCSegment) Reply() *MPSCQueue { return s.reply }

// Lanes returns the segment's lane capacity.
func (s *MPSCSegment) Lanes() int { return int(s.hdr.nlanes) }

// Closed reports whether this process's view has been torn down.
func (s *MPSCSegment) Closed() bool { return s.closed.Load() }

// ChildFiles returns the files the attaching process must inherit, in the
// order AttachMPSC expects them back: the segment file, then the command
// queue's data and space bells, then the reply queue's.
func (s *MPSCSegment) ChildFiles() []*os.File {
	return []*os.File{s.file, s.cmd.dataBell, s.cmd.spaceBell, s.reply.dataBell, s.reply.spaceBell}
}

// laneTableOp runs fn against the shared lane table unless this process's
// view is already detached, with the same inflight guard Stats uses so
// Close's munmap can never pull the table out from under fn. Returns whether
// fn ran.
func (s *MPSCSegment) laneTableOp(fn func()) bool {
	q := s.cmd
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	if q.detached.Load() {
		return false
	}
	fn()
	return true
}

// ClaimLane allocates a free lane for a new session, or reports none left
// (also the answer on a closed segment).
func (s *MPSCSegment) ClaimLane() (lane uint16, ok bool) {
	s.laneTableOp(func() {
		for i := uint32(0); i < s.hdr.nlanes; i++ {
			if s.hdr.lanes[i].CompareAndSwap(laneFree, laneClaimed) {
				fdLaneSessions.Add(1)
				s.laneSessions.Add(1)
				lane, ok = uint16(i), true
				return
			}
		}
	})
	return lane, ok
}

// ReleaseLane moves a claimed lane to draining: the session is gone, but the
// serving side may still be flushing replies, so the slot cannot be reused
// until QuiesceLane confirms both streams are done.
func (s *MPSCSegment) ReleaseLane(lane uint16) {
	s.laneTableOp(func() {
		if int(lane) < len(s.hdr.lanes) &&
			s.hdr.lanes[lane].CompareAndSwap(laneClaimed, laneDraining) {
			fdLaneSessions.Add(-1)
			s.laneSessions.Add(-1)
		}
	})
}

// QuiesceLane returns a draining lane to the free pool — called when the
// serving side's reply-EOS for the lane has been consumed, so no stale bytes
// of the dead session can ever land in its successor's streams.
func (s *MPSCSegment) QuiesceLane(lane uint16) {
	s.laneTableOp(func() {
		if int(lane) < len(s.hdr.lanes) {
			s.hdr.lanes[lane].CompareAndSwap(laneDraining, laneFree)
		}
	})
}

// LaneCounts reports how many lanes are claimed and draining (0, 0 once the
// local view is detached).
func (s *MPSCSegment) LaneCounts() (claimed, draining int) {
	s.laneTableOp(func() {
		for i := uint32(0); i < s.hdr.nlanes; i++ {
			switch s.hdr.lanes[i].Load() {
			case laneClaimed:
				claimed++
			case laneDraining:
				draining++
			}
		}
	})
	return claimed, draining
}

// Close shuts both queues (waking every parked producer and consumer in both
// processes), waits for this process's in-flight queue operations to drain,
// and unmaps the segment. If an operation refuses to drain — a wedged caller
// still inside Drain — the mapping is leaked rather than unmapped under it,
// since a stale load through an unmapped page is a process-killing SIGSEGV,
// not an error. Every queue entry point checks detached right after
// registering in-flight, so an operation that starts after the wait bails
// instead of touching the mapping. Idempotent.
func (s *MPSCSegment) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.cmd.close()
	s.reply.close()
	s.cmd.detach()
	s.reply.detach()

	unmap := true
	deadline := time.Now().Add(2 * time.Second)
	for s.cmd.inflight.Load() != 0 || s.reply.inflight.Load() != 0 {
		if time.Now().After(deadline) {
			unmap = false
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if unmap {
		syscall.Munmap(s.mem)
		// Lane releases raced out by the detach were skipped; with inflight
		// ops drained, settle what this view still holds so the process-wide
		// session gauge stays balanced. (A timed-out drain skips this: its
		// straggler ops still decrement on their own when they finish.)
		fdLaneSessions.Add(-s.laneSessions.Swap(0))
	}
	s.mem = nil
	err := s.file.Close()
	for _, q := range []*MPSCQueue{s.cmd, s.reply} {
		q.dataBell.Close()
		q.spaceBell.Close()
	}
	fdSegments.Add(-1)
	fdSegmentFiles.Add(-1)
	fdDoorbells.Add(-4)
	return err
}

// close marks the queue closed for both processes and rings both bells so
// every parked side wakes and observes it. Parked producers relay the space
// bell onward (see parkForSpace), so one token releases them all.
func (q *MPSCQueue) close() {
	if !q.localClosed.CompareAndSwap(false, true) {
		return
	}
	q.hdr.closed.Store(1)
	ringBell(q.dataBell)
	ringBell(q.spaceBell)
}

// detach snapshots the shared doorbell counters and redirects Stats to the
// snapshot, so a Stats call racing (or following) the segment unmap reads
// process-local memory instead of a page that may be gone.
func (q *MPSCQueue) detach() {
	q.finalBells.Store(q.hdr.pbells.Load() + q.hdr.cbells.Load())
	q.finalSupp.Store(q.hdr.psupp.Load() + q.hdr.csupp.Load())
	q.detached.Store(true)
}

func (q *MPSCQueue) isClosed() bool {
	return q.hdr.closed.Load() != 0 || q.localClosed.Load()
}

// Stats snapshots the queue's wait counters. Parks and Spins are this
// process's; Doorbells and Suppressed come from the shared header and count
// both sides. Safe to call after Close — the teardown path snapshots the
// shared counters before the mapping can go away, and the inflight gate
// keeps a concurrent unmap waiting for a live read of them.
func (q *MPSCQueue) Stats() Stats {
	s := Stats{Parks: q.parks.Load(), Spins: q.spins.Load()}
	q.inflight.Add(1)
	if q.detached.Load() {
		s.Doorbells = q.finalBells.Load()
		s.Suppressed = q.finalSupp.Load()
	} else {
		s.Doorbells = q.hdr.pbells.Load() + q.hdr.cbells.Load()
		s.Suppressed = q.hdr.psupp.Load() + q.hdr.csupp.Load()
	}
	q.inflight.Add(-1)
	return s
}

// LaneProducers returns one lane's frame and data producers, sharing one
// flush-coalescing bracket: both feed the same queue within one BatchWriter
// flush, so one deferred doorbell decision covers command frames and posted
// payloads together.
func (q *MPSCQueue) LaneProducers(lane uint16) (frames, data *Producer) {
	fs := &FlushState{}
	return &Producer{q: q, lane: lane, kind: RecordFrame, fs: fs},
		&Producer{q: q, lane: lane, kind: RecordData, fs: fs}
}

// Producer returns a standalone producer for one lane and kind with its own
// flush bracket — the serving side's per-lane reply writer.
func (q *MPSCQueue) Producer(lane uint16, kind RecordKind) *Producer {
	return &Producer{q: q, lane: lane, kind: kind, fs: &FlushState{}}
}

// SendEOS publishes the lane's in-band stream terminal.
func (q *MPSCQueue) SendEOS(lane uint16) error {
	return q.submit(lane, RecordEOS, nil, nil)
}

// maxRecordPayload bounds one record so a single claim can never starve the
// queue: a claim (with its wrap pad) stays under half the capacity.
func (q *MPSCQueue) maxRecordPayload() int {
	return len(q.data) / 4
}

// Write submits p as records of the producer's lane and kind, chunked to the
// queue's record bound. It blocks while the queue is full (spin, then park on
// the space doorbell) and fails with ErrClosed once the queue is closed.
func (p *Producer) Write(b []byte) (int, error) {
	written := 0
	maxRec := p.q.maxRecordPayload()
	for written < len(b) {
		chunk := len(b) - written
		if chunk > maxRec {
			chunk = maxRec
		}
		if err := p.q.submit(p.lane, p.kind, b[written:written+chunk], p.fs); err != nil {
			return written, err
		}
		written += chunk
	}
	return written, nil
}

// BeginFlush opens the doorbell-coalescing bracket (wire.FlushCoalescer) for
// this producer group: wake decisions of every submit until EndFlush collapse
// into one. Leader-serialized; brackets do not nest.
func (p *Producer) BeginFlush() { p.fs.deferWake = true }

// EndFlush closes the bracket and issues the one deferred wake decision.
// Running the parked check here — after the bracket's final commit —
// preserves the Dekker no-lost-wakeup property: a consumer parking
// mid-bracket set rparked before re-checking emptiness, so either it saw our
// records and returned, or we see its flag now and ring.
func (p *Producer) EndFlush() {
	p.fs.deferWake = false
	p.q.flushWake(p.fs)
}

// flushWake issues a deferred wake, guarding the shared-header access with
// the inflight/detached bracket since EndFlush runs outside submit.
func (q *MPSCQueue) flushWake(fs *FlushState) {
	if fs == nil || !fs.wakePending {
		return
	}
	fs.wakePending = false
	q.inflight.Add(1)
	if !q.detached.Load() {
		q.ringDataBell()
	}
	q.inflight.Add(-1)
}

// submit claims, fills, and publishes one record. The claim is a CAS on the
// shared head cursor over [h, h+size) — plus a pad record when the span
// would wrap, keeping every record contiguous. Publication is the header
// store: the consumer treats a zero header at tail as "claimed, not yet
// committed" and waits for the claimant, which is what makes claim order the
// stream order even when producers finish out of order.
func (q *MPSCQueue) submit(lane uint16, kind RecordKind, payload []byte, fs *FlushState) error {
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	if q.detached.Load() {
		return ErrClosed
	}
	if uint64(len(payload)) > uint64(q.maxRecordPayload()) {
		return fmt.Errorf("shm: record payload %d over queue bound %d", len(payload), q.maxRecordPayload())
	}

	need := align8(recAlign + uint64(len(payload)))
	capacity := uint64(len(q.data))
	spins := 0
	for {
		if q.isClosed() {
			return ErrClosed
		}
		h := q.hdr.head.Load()
		t := q.hdr.tail.Load()
		pos := h & q.mask
		want := need
		pad := uint64(0)
		if contig := capacity - pos; need > contig {
			pad = contig
			want = need + contig
		}
		if capacity-(h-t) < want {
			// Full. Release any doorbell a flush bracket is holding back —
			// the consumer cannot drain while parked — then wait for space.
			q.flushWakeLocked(fs)
			if spins < spinBudget {
				q.relax(spins)
				spins++
				continue
			}
			q.parkForSpace(want)
			spins = 0
			continue
		}
		if !q.hdr.head.CompareAndSwap(h, h+want) {
			// Another producer claimed first; its progress is ours too.
			continue
		}
		if pad > 0 {
			// The span would wrap: commit a pad over the tail of the buffer
			// (consumers skip it) and start the record at offset zero.
			q.storeHeader(pos, recCommit|uint64(recordPad)<<recKindShift|pad)
			pos = 0
		}
		copy(q.data[pos+recAlign:pos+recAlign+uint64(len(payload))], payload)
		q.storeHeader(pos, recHeader(kind, lane, len(payload)))
		q.wakeConsumer(fs)
		return nil
	}
}

// flushWakeLocked is flushWake without the inflight bracket — submit already
// holds one.
func (q *MPSCQueue) flushWakeLocked(fs *FlushState) {
	if fs == nil || !fs.wakePending {
		return
	}
	fs.wakePending = false
	q.ringDataBell()
}

// storeHeader publishes one record header word. Offsets are 8-aligned by
// construction (every claim is a multiple of recAlign).
func (q *MPSCQueue) storeHeader(pos uint64, w uint64) {
	(*atomic.Uint64)(unsafe.Pointer(&q.data[pos])).Store(w)
}

func (q *MPSCQueue) loadHeader(pos uint64) uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&q.data[pos])).Load()
}

// Drain blocks until at least one record is consumable, then consumes every
// record already published, invoking fn with each record's lane, kind, and
// payload. The payload slice aliases the shared mapping and is valid only
// during the callback — fn must copy what it keeps. Returns io.EOF once the
// queue is closed and drained (or a producer died mid-claim; teardown
// forfeits the torn record), ErrClosed after local detach.
//
// The cursors and header words live in memory the peer process can write, so
// Drain trusts none of them: a tail or head out of step with each other, or
// a header naming an unknown kind, a lane beyond the segment, an oversized
// payload, or a span that is empty, misaligned or runs past the claimed
// bytes or the buffer's end, closes the queue and returns ErrCorrupt.
func (q *MPSCQueue) Drain(fn func(lane uint16, kind RecordKind, payload []byte)) error {
	q.inflight.Add(1)
	defer q.inflight.Add(-1)
	if q.detached.Load() {
		return io.EOF
	}

	consumed := false
	spins := 0
	for {
		t := q.hdr.tail.Load()
		h := q.hdr.head.Load()
		if t%recAlign != 0 || h-t > uint64(len(q.data)) {
			return q.corrupt("cursors head %d, tail %d", h, t)
		}
		if h != t {
			pos := t & q.mask
			w := q.loadHeader(pos)
			if w != 0 {
				kind, lane, n := recDecode(w)
				size := align8(recAlign + n)
				if kind == recordPad {
					size = n
				}
				switch {
				case kind > recordPad:
					return q.corrupt("record kind %d at %d", kind, t)
				case kind != recordPad && uint32(lane) >= q.lanes:
					return q.corrupt("record lane %d of %d at %d", lane, q.lanes, t)
				case kind != recordPad && n > uint64(q.maxRecordPayload()):
					return q.corrupt("record payload %d at %d", n, t)
				case size == 0 || size%recAlign != 0 || size > h-t || size > uint64(len(q.data))-pos:
					return q.corrupt("record span %d at %d", size, t)
				}
				if kind != recordPad {
					fn(lane, kind, q.data[pos+recAlign:pos+recAlign+n])
				}
				// Re-arm the span before retiring it. The whole span, not just
				// the header word: next lap's record boundaries need not line
				// up with this lap's, so any aligned word in here could serve
				// as a future header — stale payload bytes with bit 63 set
				// would read as a committed record. Producers only reclaim
				// bytes the tail has passed, so the clear can never race a new
				// claim's writes.
				clear(q.data[pos : pos+size])
				q.hdr.tail.Store(t + size)
				q.wakeProducers()
				consumed = true
				spins = 0
				continue
			}
			// Claimed but not yet committed: the claimant is mid-copy. Spin —
			// commitment is a couple of loads away — then park; the claimant's
			// commit path re-checks our parked flag.
		}
		if consumed {
			return nil
		}
		if q.isClosed() {
			// Drain whatever was committed. An uncommitted claim at tail
			// after close means the claimant bailed with ErrClosed or its
			// process died mid-record; either way the stream is torn and
			// teardown owns the bytes.
			if q.hdr.head.Load() == t || q.loadHeader(t&q.mask) == 0 {
				return io.EOF
			}
			continue
		}
		if spins < spinBudget {
			q.relax(spins)
			spins++
			continue
		}
		q.park(&q.hdr.rparked, q.dataBell, func() bool {
			// Aligned down so a tail the peer scribbled on cannot make the
			// load straddle the buffer's end; the loop above rejects it.
			t := q.hdr.tail.Load() &^ (recAlign - 1)
			return q.hdr.head.Load() != t && q.loadHeader(t&q.mask) != 0
		})
		spins = 0
	}
}

// corrupt closes the queue over a record stream the consumer cannot trust and
// reports it as ErrCorrupt.
func (q *MPSCQueue) corrupt(format string, args ...any) error {
	q.close()
	return fmt.Errorf("%w: %s queue: "+format, append([]any{ErrCorrupt, q.name}, args...)...)
}

// wakeConsumer decides the post-publish wake: inside the producer group's
// flush bracket the decision is deferred (and counted suppressed past the
// first), otherwise the data doorbell rings iff the consumer is parked.
func (q *MPSCQueue) wakeConsumer(fs *FlushState) {
	if fs != nil && fs.deferWake {
		if fs.wakePending {
			q.hdr.psupp.Add(1)
		}
		fs.wakePending = true
		return
	}
	q.ringDataBell()
}

// ringDataBell rings the data doorbell iff the consumer is parked (or mid-
// park). The flag check keeps the hot path syscall-free: an actively
// spinning or busy consumer never costs the producer a bell — that skip is
// what the suppressed counter records.
func (q *MPSCQueue) ringDataBell() {
	if q.hdr.rparked.Load() != 0 {
		q.hdr.pbells.Add(1)
		ringBell(q.dataBell)
	} else {
		q.hdr.psupp.Add(1)
	}
}

// wakeProducers rings the space bell when any producer is parked. One token
// wakes one producer; parkForSpace relays it while peers remain parked.
func (q *MPSCQueue) wakeProducers() {
	if q.hdr.wparked.Load() != 0 {
		q.hdr.cbells.Add(1)
		ringBell(q.spaceBell)
	} else {
		q.hdr.csupp.Add(1)
	}
}

// parkForSpace blocks one producer on the space bell until capacity might
// fit want bytes. The parked count (not a flag) pairs with the relay below:
// the consumer rings once per retire, the woken producer passes the token on
// while siblings still wait and progress (or teardown) is possible, so one
// bell read never strands the others.
func (q *MPSCQueue) parkForSpace(want uint64) {
	q.hdr.wparked.Add(1)
	free := uint64(len(q.data)) - (q.hdr.head.Load() - q.hdr.tail.Load())
	if free >= want || q.isClosed() {
		q.hdr.wparked.Add(^uint32(0))
		return
	}
	q.parks.Add(1)
	var buf [8]byte
	q.spaceBell.Read(buf[:])
	q.hdr.wparked.Add(^uint32(0))
	if q.hdr.wparked.Load() != 0 {
		if q.isClosed() {
			ringBell(q.spaceBell)
		} else if uint64(len(q.data))-(q.hdr.head.Load()-q.hdr.tail.Load()) != 0 {
			ringBell(q.spaceBell)
		}
	}
}

// park blocks the consumer on bell until a producer rings it, the queue
// closes, or ready reports the wait is already over. The flag-then-recheck
// order pairs with the producers' commit-then-check-flag order (see the
// package comment); together they guarantee the bell cannot be missed. A
// bell read may also return a stale token from an earlier wake — callers
// loop and re-check, so spurious wakeups are harmless.
func (q *MPSCQueue) park(flag *atomic.Uint32, bell *os.File, ready func() bool) {
	flag.Store(1)
	defer flag.Store(0)
	if ready() || q.isClosed() {
		return
	}
	q.parks.Add(1)
	var buf [8]byte
	// The eventfd is in blocking mode (exec inheritance forces it there), so
	// this occupies an OS thread, not the netpoller; the runtime hands the P
	// off. Errors need no handling: a closed bell during teardown surfaces
	// as an error here, and the caller's loop then observes the closed queue.
	bell.Read(buf[:])
}

// relax burns one bounded-spin iteration: sched_yield so the peer process
// can run on a shared core, with a periodic Gosched so same-process
// goroutines get the P too.
func (q *MPSCQueue) relax(spin int) {
	q.spins.Add(1)
	if spin%goschedEvery == goschedEvery-1 {
		runtime.Gosched()
	} else {
		syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0)
	}
}

// ringBell posts one token to an eventfd. Failures are ignored: the only
// ways a bell write fails are teardown races, where the waiter is being
// released by the closed flag anyway.
func ringBell(bell *os.File) {
	var one = [8]byte{0: 1}
	bell.Write(one[:])
}

// newEventFD opens a fresh eventfd doorbell. Blocking mode is deliberate:
// os/exec flips inherited descriptors to blocking when spawning the child,
// and the flag lives on the shared open file description, so nonblocking
// semantics could not survive anyway. A parked waiter simply occupies one
// OS thread until rung.
func newEventFD() (*os.File, error) {
	const efdCloexec = 0x80000 // EFD_CLOEXEC; cleared per-fd by ExtraFiles inheritance
	fd, _, errno := syscall.Syscall(eventfdTrap, 0, efdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("shm: eventfd: %w", errno)
	}
	return os.NewFile(fd, "shm-doorbell"), nil
}

// newSegmentFile returns an anonymous file to back the mapping: a memfd
// when available, else an unlinked temp file (page-cache backed, so the
// data path is the same; only the name lifecycle differs).
func newSegmentFile() (*os.File, error) {
	if memfdTrap != 0 {
		name, err := syscall.BytePtrFromString("af-shm")
		if err == nil {
			const mfdCloexec = 1 // MFD_CLOEXEC
			fd, _, errno := syscall.Syscall(memfdTrap, uintptr(unsafe.Pointer(name)), mfdCloexec, 0)
			if errno == 0 {
				return os.NewFile(fd, "af-shm"), nil
			}
		}
	}
	f, err := os.CreateTemp("", "af-shm-*")
	if err != nil {
		return nil, fmt.Errorf("shm: create segment file: %w", err)
	}
	os.Remove(f.Name())
	return f, nil
}

func ceilPow2(n int) int {
	if n < minRingBytes {
		n = minRingBytes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
