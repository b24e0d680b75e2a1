package core

import (
	"errors"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// transport is the client half of a strategy: it carries one session's
// operations from the application stubs to the sentinel. Implementations
// must be safe for concurrent use — the Handle no longer serializes
// independent operations, only those sharing the seek offset. The one
// exception is the plain process strategy's stream transport, whose
// readAt/writeAt are only ever reached through Read/Write and therefore
// arrive pre-serialized under the Handle's offset lock, preserving stream
// ordering.
type transport interface {
	// readAt fills p from offset off. Stream transports ignore off and
	// deliver the next bytes of the sentinel's output stream.
	readAt(p []byte, off int64) (int, error)
	// writeAt stores p at offset off. Stream transports ignore off and
	// append to the sentinel's input stream.
	writeAt(p []byte, off int64) (int, error)
	size() (int64, error)
	truncate(n int64) error
	sync() error
	lock(off, n int64) error
	unlock(off, n int64) error
	control(req []byte) ([]byte, error)
	close() error
}

// Handle is an open session on an active file. It exposes the ordinary file
// API — Read, Write, Seek, and friends — so that, per the paper's central
// claim, "interactions with active files are indistinguishable from
// interactions with ordinary (passive) files". The strategy underneath
// determines only cost and (for the plain process strategy) which operations
// are supported.
//
// A Handle is safe for concurrent use, and independent operations proceed in
// parallel: only Read, Write, and Seek — the operations sharing the implicit
// seek offset — serialize against each other. Positioned operations
// (ReadAt, WriteAt), Size, Truncate, Sync, locks, and Control go straight to
// the transport concurrently, pipelined over the session channel.
type Handle struct {
	strategy Strategy
	tr       transport

	// closeMu gates every operation (read side) against Close (write side),
	// so Close observes a quiesced session and ops never race a closing
	// transport.
	closeMu sync.RWMutex
	closed  bool

	// offMu guards only the seek offset — the streaming-op lock. Positioned
	// operations never take it.
	offMu  sync.Mutex
	offset int64

	stats handleStats
}

// Stats counts a session's activity — what the sentinel mediated on the
// application's behalf.
type Stats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	Errors       uint64
	// InFlight is the number of operations currently executing against the
	// session — a gauge, not a counter; nonzero only while snapshotting
	// concurrently with active operations.
	InFlight int64
	// Carrier names the conduit the session's control channel actually runs
	// on ("pipe" or "shm") for strategies that have one; empty otherwise.
	Carrier string
	// CarrierFallback is non-empty exactly when the manifest requested the
	// shm carrier but the session was demoted to pipes; it records the
	// one-shot rejection reason (unsupported platform, a lane sentinel that
	// failed to start or answer), so the fallback is observable instead of
	// silent.
	CarrierFallback string
}

// handleStats holds the live counters as atomics so Stats() snapshots never
// contend with the data path.
type handleStats struct {
	reads        atomic.Uint64
	writes       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	errors       atomic.Uint64
	inFlight     atomic.Int64
}

var (
	_ io.ReadWriteSeeker = (*Handle)(nil)
	_ io.ReaderAt        = (*Handle)(nil)
	_ io.WriterAt        = (*Handle)(nil)
	_ io.Closer          = (*Handle)(nil)
)

func newHandle(strategy Strategy, tr transport) *Handle {
	return &Handle{strategy: strategy, tr: tr}
}

// Strategy returns the implementation strategy serving this handle.
func (h *Handle) Strategy() Strategy { return h.strategy }

// BatchStats reports command-channel flush amortization — frames sent versus
// vectored writes issued — for strategies whose transport batches (procctl).
// ok is false when the strategy has no batched command channel.
func (h *Handle) BatchStats() (wire.BatchStats, bool) {
	bs, ok := h.tr.(interface{ batchStats() wire.BatchStats })
	if !ok {
		return wire.BatchStats{}, false
	}
	return bs.batchStats(), true
}

// DataPlaneStats counts the syscall economy of a session's control channel:
// how many eventfd doorbells the shm queues actually rang versus suppressed
// (coalesced or peer-running), and how many response frames each receive
// wakeup delivered. Queue counters live in the shared segment, so they cover
// both processes and both directions.
type DataPlaneStats struct {
	Carrier         string // "shm" or "pipe"
	CarrierFallback string // shm→pipe demotion reason, when any
	Doorbells       uint64 // eventfd doorbells rung, both queues, both sides
	Suppressed      uint64 // wakeups avoided (peer running, or coalesced into a flush)
	RecvFrames      uint64 // response frames the client receive loop decoded
	RecvWakeups     uint64 // read syscalls that delivered them (0 on shm: no hot-path reads)

	// Descriptor economy of the session's segment. With shmlanes=N many
	// sessions split one segment's descriptors; SegmentSessions says how
	// many ways, so fds-per-session = SegmentFDs / SegmentSessions. A
	// one-lane segment reports SegmentSessions 1; the pipe carrier, all
	// zeros.
	SegmentSessions int // sessions multiplexed on this session's segment (incl. draining)
	SegmentFDs      int // parent-side descriptors the segment pins (file + doorbells)
	DoorbellFDs     int // doorbell eventfds among them
}

// DataPlaneStats reports the session's transport-level wakeup counters for
// strategies with a framed control channel (procctl). ok is false for the
// rest.
func (h *Handle) DataPlaneStats() (DataPlaneStats, bool) {
	ds, ok := h.tr.(interface{ dataPlaneStats() DataPlaneStats })
	if !ok {
		return DataPlaneStats{}, false
	}
	return ds.dataPlaneStats(), true
}

// Stats returns a snapshot of the session's activity counters. It never
// blocks behind in-flight operations.
func (h *Handle) Stats() Stats {
	s := Stats{
		Reads:        h.stats.reads.Load(),
		Writes:       h.stats.writes.Load(),
		BytesRead:    h.stats.bytesRead.Load(),
		BytesWritten: h.stats.bytesWritten.Load(),
		Errors:       h.stats.errors.Load(),
		InFlight:     h.stats.inFlight.Load(),
	}
	if ci, ok := h.tr.(interface{ carrierInfo() (string, string) }); ok {
		s.Carrier, s.CarrierFallback = ci.carrierInfo()
	}
	return s
}

// begin admits one operation: it takes the close gate and bumps the
// in-flight gauge. Every successful begin must be paired with end.
func (h *Handle) begin() error {
	h.closeMu.RLock()
	if h.closed {
		h.closeMu.RUnlock()
		return wire.ErrClosed
	}
	h.stats.inFlight.Add(1)
	return nil
}

// end retires an operation admitted by begin.
func (h *Handle) end() {
	h.stats.inFlight.Add(-1)
	h.closeMu.RUnlock()
}

// countRead updates the read counters.
func (h *Handle) countRead(n int, err error) {
	h.stats.reads.Add(1)
	h.stats.bytesRead.Add(uint64(n))
	if err != nil {
		h.stats.errors.Add(1)
	}
}

// countWrite updates the write counters.
func (h *Handle) countWrite(n int, err error) {
	h.stats.writes.Add(1)
	h.stats.bytesWritten.Add(uint64(n))
	if err != nil {
		h.stats.errors.Add(1)
	}
}

// Read reads from the current offset, advancing it. Reads serialize against
// Write and Seek (they share the offset) but not against positioned ops.
func (h *Handle) Read(p []byte) (int, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	h.offMu.Lock()
	defer h.offMu.Unlock()
	n, err := h.tr.readAt(p, h.offset)
	h.offset += int64(n)
	h.countRead(n, err)
	return n, err
}

// Write writes at the current offset, advancing it. Writes serialize against
// Read and Seek (they share the offset) but not against positioned ops.
func (h *Handle) Write(p []byte) (int, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	h.offMu.Lock()
	defer h.offMu.Unlock()
	n, err := h.tr.writeAt(p, h.offset)
	h.offset += int64(n)
	h.countWrite(n, err)
	return n, err
}

// ReadAt reads at an absolute offset without moving the handle's offset.
// Concurrent ReadAt calls proceed in parallel. Unsupported on the plain
// process strategy.
func (h *Handle) ReadAt(p []byte, off int64) (int, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return 0, wire.ErrUnsupported
	}
	n, err := h.tr.readAt(p, off)
	h.countRead(n, err)
	return n, err
}

// WriteAt writes at an absolute offset without moving the handle's offset.
// Concurrent WriteAt calls proceed in parallel. Unsupported on the plain
// process strategy.
func (h *Handle) WriteAt(p []byte, off int64) (int, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return 0, wire.ErrUnsupported
	}
	n, err := h.tr.writeAt(p, off)
	h.countWrite(n, err)
	return n, err
}

// Seek repositions the handle offset. On the plain process strategy it is
// dropped with wire.ErrUnsupported, matching §4.1.
func (h *Handle) Seek(offset int64, whence int) (int64, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return 0, wire.ErrUnsupported
	}
	h.offMu.Lock()
	defer h.offMu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = h.offset
	case io.SeekEnd:
		size, err := h.tr.size()
		if err != nil {
			return 0, err
		}
		base = size
	default:
		return 0, errors.New("core: invalid seek whence")
	}
	if offset > 0 && base > math.MaxInt64-offset {
		return 0, errors.New("core: seek position overflows int64")
	}
	target := base + offset
	if target < 0 {
		return 0, errors.New("core: negative seek position")
	}
	h.offset = target
	return target, nil
}

// Size returns the session content length (GetFileSize). Unsupported on the
// plain process strategy.
func (h *Handle) Size() (int64, error) {
	if err := h.begin(); err != nil {
		return 0, err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return 0, wire.ErrUnsupported
	}
	return h.tr.size()
}

// Truncate sets the content length. Unsupported on the plain process
// strategy.
func (h *Handle) Truncate(n int64) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return wire.ErrUnsupported
	}
	return h.tr.truncate(n)
}

// Sync flushes sentinel state (caches, deferred writes, remote propagation).
func (h *Handle) Sync() error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return wire.ErrUnsupported
	}
	return h.tr.sync()
}

// Lock acquires a byte-range lock [off, off+n) if the program supports it.
func (h *Handle) Lock(off, n int64) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return wire.ErrUnsupported
	}
	return h.tr.lock(off, n)
}

// Unlock releases a byte-range lock.
func (h *Handle) Unlock(off, n int64) error {
	if err := h.begin(); err != nil {
		return err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return wire.ErrUnsupported
	}
	return h.tr.unlock(off, n)
}

// Control sends a program-specific out-of-band command.
func (h *Handle) Control(req []byte) ([]byte, error) {
	if err := h.begin(); err != nil {
		return nil, err
	}
	defer h.end()
	if !h.strategy.SupportsPositioning() {
		return nil, wire.ErrUnsupported
	}
	return h.tr.control(req)
}

// Close ends the session, terminating the sentinel ("the sentinel process is
// ... terminated when a user process ... closes the active file", §2.2).
// Close waits for in-flight operations to retire, then closes the transport.
// Close is idempotent.
func (h *Handle) Close() error {
	h.closeMu.Lock()
	defer h.closeMu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	return h.tr.close()
}
