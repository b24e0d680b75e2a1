package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// releaseNone is the no-op release shared by every dispatch that holds no
// pooled buffer.
func releaseNone() {}

// dispatcher executes operations against a Handler. It is the one code path
// every strategy's parallelism goes through: the thread sentinel workers,
// the procctl serving loop, the direct transport, and the stream sentinel
// all funnel handler access here. The dispatcher is safe for concurrent use
// — it serializes Handler calls (the Handler contract leaves programs
// unsynchronized) while letting callers overlap everything around them:
// framing, pipe I/O, buffer copies, and waiting.
type dispatcher struct {
	handler Handler
	// mu guards handler calls. For ordinary handlers every call takes the
	// write side, restoring strict serialization; handlers declaring
	// ConcurrentSafe take the read side, so their calls overlap and only
	// closeHandler (write side) excludes them.
	mu     sync.RWMutex
	serial bool         // serialize every handler call
	closed atomic.Bool  // set once the handler has been closed
	wb     *writeBehind // opt-in write coalescer; nil when disabled
}

func newDispatcher(h Handler) *dispatcher {
	serial := true
	if ch, ok := h.(ConcurrentHandler); ok && ch.ConcurrentSafe() {
		serial = false
	}
	return &dispatcher{handler: h, serial: serial}
}

// enableWriteBehind turns on write coalescing. Call before the dispatcher
// serves traffic.
func (d *dispatcher) enableWriteBehind() {
	d.wb = &writeBehind{d: d}
}

// enter acquires the handler-call lock appropriate to the handler's
// concurrency contract; leave releases it. A pair of methods rather than a
// returned release, which would allocate a method value on every call.
func (d *dispatcher) enter() {
	if d.serial {
		d.mu.Lock()
	} else {
		d.mu.RLock()
	}
}

func (d *dispatcher) leave() {
	if d.serial {
		d.mu.Unlock()
	} else {
		d.mu.RUnlock()
	}
}

// guarded runs one handler call under the dispatch lock, converting a panic
// in the program into an error instead of letting it unwind the sentinel:
// an unwound sentinel tears the channel mid-frame and the application sees
// only a dead pipe, while an error response keeps the session answering.
// The lock is released before the panic is swallowed, so a poisoned call
// can never wedge every later operation.
func (d *dispatcher) guarded(f func() error) (err error) {
	d.enter()
	defer func() {
		d.leave()
		if r := recover(); r != nil {
			err = fmt.Errorf("sentinel program panicked: %v", r)
		}
	}()
	return f()
}

// dispatch runs one operation, concurrency-safe. For OpRead, dst (when
// non-nil, at least req.N bytes) is where the handler reads to, and the
// response's Data aliases it; with a nil dst Data is backed by a pooled
// buffer, and the caller must invoke release exactly once, after shipping or
// copying the data. In every other case release is a no-op (but still safe
// to call).
func (d *dispatcher) dispatch(req *wire.Request, dst []byte) (wire.Response, func()) {
	resp := wire.Response{Seq: req.Seq, Status: wire.StatusOK}
	if d.closed.Load() && req.Op != wire.OpClose {
		resp.Status = wire.StatusClosed
		return resp, releaseNone
	}
	switch req.Op {
	case wire.OpRead:
		n := int(req.N)
		if n < 0 || n > wire.MaxPayload {
			resp.Status, resp.Msg = wire.StatusError, "bad read size"
			return resp, releaseNone
		}
		d.wb.flushOverlap(req.Off, n)
		buf, release := dst, releaseNone
		if buf == nil {
			buf, release = wire.GetBuf(n)
		}
		buf = buf[:n]
		var rn int
		err := d.guarded(func() (e error) { rn, e = d.handler.ReadAt(buf, req.Off); return })
		resp.N = int64(rn)
		resp.Data = buf[:rn]
		if err != nil {
			// A short read at end of file keeps its data AND reports EOF,
			// matching os.File.ReadAt semantics end to end.
			resp.Status, resp.Msg = wire.FromError(err)
		}
		return resp, release

	case wire.OpWrite:
		var wn int
		var err error
		if d.wb != nil {
			wn, err = d.wb.write(req.Data, req.Off)
		} else {
			err = d.guarded(func() (e error) { wn, e = d.handler.WriteAt(req.Data, req.Off); return })
		}
		resp.N = int64(wn)
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpSize:
		d.wb.flush() // buffered writes may extend the file
		var size int64
		err := d.guarded(func() (e error) { size, e = d.handler.Size(); return })
		resp.N = size
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpTruncate:
		d.wb.flush() // buffered writes happened before the truncate
		if err := d.guarded(func() error { return d.handler.Truncate(req.Off) }); err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpSync:
		werr := d.wb.settle()
		err := d.guarded(func() error { return d.handler.Sync() })
		if werr != nil {
			// The deferred write failure is the older event; it wins.
			err = werr
		}
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpLock:
		locker, ok := d.handler.(Locker)
		if !ok {
			resp.Status = wire.StatusUnsupported
			return resp, releaseNone
		}
		err := d.guarded(func() error { return locker.Lock(req.Off, req.N) })
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpUnlock:
		locker, ok := d.handler.(Locker)
		if !ok {
			resp.Status = wire.StatusUnsupported
			return resp, releaseNone
		}
		err := d.guarded(func() error { return locker.Unlock(req.Off, req.N) })
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpControl:
		ctl, ok := d.handler.(Controller)
		if !ok {
			resp.Status = wire.StatusUnsupported
			return resp, releaseNone
		}
		d.wb.flush() // the program may inspect file state out of band
		var out []byte
		err := d.guarded(func() (e error) { out, e = ctl.Control(req.Data); return })
		resp.Data = out
		resp.N = int64(len(out))
		if err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	case wire.OpClose:
		if err := d.closeHandler(); err != nil {
			resp.Status, resp.Msg = wire.FromError(err)
		}

	default:
		resp.Status = wire.StatusUnsupported
	}
	return resp, releaseNone
}

// The direct transport (and the prefetcher, and the stream sentinel) bypass
// wire framing entirely and use these serialized accessors — the zero-copy
// fast path into the same handler-synchronization discipline dispatch uses.

// readAt fills p from the handler at off, serialized with all other handler
// calls. Zero-copy: the handler writes straight into p.
func (d *dispatcher) readAt(p []byte, off int64) (int, error) {
	if d.closed.Load() {
		return 0, wire.ErrClosed
	}
	d.wb.flushOverlap(off, len(p))
	d.enter()
	defer d.leave()
	return d.handler.ReadAt(p, off)
}

// handlerWriteAt is the raw backing write: straight to the handler under its
// lock, bypassing the coalescer. It is the write-behind flush path.
func (d *dispatcher) handlerWriteAt(p []byte, off int64) (int, error) {
	d.enter()
	defer d.leave()
	return d.handler.WriteAt(p, off)
}

// writeAt stores p at off, serialized with all other handler calls (or
// buffered, when write-behind is on).
func (d *dispatcher) writeAt(p []byte, off int64) (int, error) {
	if d.closed.Load() {
		return 0, wire.ErrClosed
	}
	if d.wb != nil {
		return d.wb.write(p, off)
	}
	d.enter()
	defer d.leave()
	return d.handler.WriteAt(p, off)
}

func (d *dispatcher) size() (int64, error) {
	if d.closed.Load() {
		return 0, wire.ErrClosed
	}
	d.wb.flush()
	d.enter()
	defer d.leave()
	return d.handler.Size()
}

func (d *dispatcher) truncate(n int64) error {
	if d.closed.Load() {
		return wire.ErrClosed
	}
	d.wb.flush()
	d.enter()
	defer d.leave()
	return d.handler.Truncate(n)
}

func (d *dispatcher) sync() error {
	if d.closed.Load() {
		return wire.ErrClosed
	}
	werr := d.wb.settle()
	d.enter()
	defer d.leave()
	if err := d.handler.Sync(); werr == nil {
		return err
	}
	return werr
}

func (d *dispatcher) lock(off, n int64) error {
	locker, ok := d.handler.(Locker)
	if !ok {
		return wire.ErrUnsupported
	}
	if d.closed.Load() {
		return wire.ErrClosed
	}
	d.enter()
	defer d.leave()
	return locker.Lock(off, n)
}

func (d *dispatcher) unlock(off, n int64) error {
	locker, ok := d.handler.(Locker)
	if !ok {
		return wire.ErrUnsupported
	}
	if d.closed.Load() {
		return wire.ErrClosed
	}
	d.enter()
	defer d.leave()
	return locker.Unlock(off, n)
}

func (d *dispatcher) control(req []byte) ([]byte, error) {
	ctl, ok := d.handler.(Controller)
	if !ok {
		return nil, wire.ErrUnsupported
	}
	if d.closed.Load() {
		return nil, wire.ErrClosed
	}
	d.wb.flush()
	d.enter()
	defer d.leave()
	return ctl.Control(req)
}

// closeHandler closes the handler exactly once; later calls (and dispatches)
// are no-ops reporting success or StatusClosed respectively. Every shutdown
// path — explicit OpClose, abandoned transport, failed channel — funnels
// here, so a session can never double-close its program. Buffered writes
// settle before the handler lock is taken (wb.mu orders before d.mu), and a
// deferred write failure outranks a clean close.
func (d *dispatcher) closeHandler() error {
	var werr error
	if !d.closed.Load() {
		werr = d.wb.settle()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := d.handler.Close()
	if werr != nil {
		return werr
	}
	return err
}
