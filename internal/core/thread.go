package core

import (
	"errors"
	"io"
	"sync"

	"repro/internal/ipc"
	"repro/internal/wire"
)

// threadWorkers is the size of the sentinel worker pool serving one
// DLL-with-thread session. Handler calls serialize inside the dispatcher
// regardless, so workers buy pipelining — while one operation executes, the
// rendezvous handoffs and reply delivery of the others overlap — not
// unsynchronized program access.
const threadWorkers = 8

// threadOp is one operation in flight across the rendezvous: the request
// and, for OpRead, the caller's destination, which the worker has the
// handler fill in place. Pooled, so a steady-state exchange allocates
// nothing.
type threadOp struct {
	req wire.Request
	dst []byte
}

var threadOps = sync.Pool{New: func() any { return new(threadOp) }}

// threadTransport implements the DLL-with-thread strategy (§4.3): the
// sentinel runs as goroutines inside the application process and each file
// operation is a synchronous rendezvous with one of them — the analogue of
// the paper's shared-memory buffers with event signalling ("the application
// simply switches over to the sentinel thread ... without requiring costly
// interactions across process boundaries"). Unlike the original
// one-goroutine loop, a small worker pool drains the rendezvous, so
// independent operations pipeline: any number of application goroutines may
// rendezvous concurrently, correlated by Seq.
type threadTransport struct {
	rv  *ipc.Rendezvous[*threadOp, wire.Response]
	d   *dispatcher
	seq wire.SeqCounter
	wg  sync.WaitGroup // sentinel workers
	pf  *prefetcher    // client-side read-ahead; nil when opted out
}

var _ transport = (*threadTransport)(nil)

// newThreadTransport starts the sentinel worker pool over handler and
// returns the connected transport. The workers exit when the transport
// closes.
func newThreadTransport(handler Handler, opts sessionOptions) *threadTransport {
	t := &threadTransport{
		rv: ipc.NewRendezvous[*threadOp, wire.Response](),
		d:  newDispatcher(handler),
	}
	if opts.writeBehind {
		t.d.enableWriteBehind()
	}
	if opts.readAhead {
		// Sequential reads are answered from the window by a memcpy; the
		// async fill rendezvouses with a sentinel worker in the background,
		// off the application's critical path.
		t.pf = newPrefetcher(t.callReadAt, true)
	}
	t.wg.Add(threadWorkers)
	for i := 0; i < threadWorkers; i++ {
		go t.sentinelMain()
	}
	go t.reap()
	return t
}

// sentinelMain is the SentinelThrdMain dispatch loop, now one of several:
// block on the rendezvous for control messages, perform the operation
// through the shared concurrency-safe dispatcher, reply.
func (t *threadTransport) sentinelMain() {
	defer t.wg.Done()
	for {
		op, reply, err := t.rv.Next()
		if err != nil {
			return
		}
		// A read lands in op.dst, so no pooled buffer needs releasing. The
		// rendezvous keeps the caller waiting until reply, which is what
		// makes writing into its buffer safe; after reply op belongs to
		// the caller again and is not touched.
		closing := op.req.Op == wire.OpClose
		resp, _ := t.d.dispatch(&op.req, op.dst)
		reply(resp)
		if closing {
			t.rv.Close() // wake the remaining workers
			return
		}
	}
}

// reap joins the worker pool and releases program resources if the session
// was abandoned (transport closed without an explicit OpClose). The
// dispatcher's once-guard makes this a no-op after a served OpClose.
func (t *threadTransport) reap() {
	t.wg.Wait()
	t.d.closeHandler()
}

// call performs one synchronous exchange with a sentinel worker. For OpRead,
// dst (req.N bytes) receives the data and resp.Data aliases it.
func (t *threadTransport) call(req wire.Request, dst []byte) (wire.Response, error) {
	op := threadOps.Get().(*threadOp)
	op.req, op.dst = req, dst
	op.req.Seq = t.seq.Next()
	resp, err := t.rv.Call(op)
	*op = threadOp{}
	threadOps.Put(op)
	if err != nil {
		return wire.Response{}, wire.ErrClosed
	}
	return resp, nil
}

func (t *threadTransport) readAt(p []byte, off int64) (int, error) {
	if n, err, ok := t.pf.readAt(p, off); ok {
		return n, err
	}
	n, err := t.callReadAt(p, off)
	if err == nil || errors.Is(err, io.EOF) {
		t.pf.afterRead(off, n, len(p), errors.Is(err, io.EOF))
	}
	return n, err
}

// callReadAt reads through the sentinel rendezvous, chunked to the frame
// payload bound — the window-miss path, and the prefetcher's fill source.
func (t *threadTransport) callReadAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		resp, err := t.call(wire.Request{Op: wire.OpRead, Off: off + int64(total), N: int64(chunk)}, p[total:total+chunk])
		if err != nil {
			return total, err
		}
		n := len(resp.Data)
		total += n
		if werr := wire.ToError(wire.OpRead, resp.Status, resp.Msg); werr != nil {
			return total, werr
		}
		if n == 0 {
			break
		}
	}
	return total, nil
}

func (t *threadTransport) writeAt(p []byte, off int64) (int, error) {
	defer t.pf.invalidate() // written content may overlap the window
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		resp, err := t.call(wire.Request{Op: wire.OpWrite, Off: off + int64(total), Data: p[total : total+chunk]}, nil)
		if err != nil {
			return total, err
		}
		total += int(resp.N)
		if werr := wire.ToError(wire.OpWrite, resp.Status, resp.Msg); werr != nil {
			return total, werr
		}
		if resp.N == 0 {
			break
		}
	}
	return total, nil
}

func (t *threadTransport) size() (int64, error) {
	resp, err := t.call(wire.Request{Op: wire.OpSize}, nil)
	if err != nil {
		return 0, err
	}
	return resp.N, wire.ToError(wire.OpSize, resp.Status, resp.Msg)
}

func (t *threadTransport) truncate(n int64) error {
	defer t.pf.invalidate()
	resp, err := t.call(wire.Request{Op: wire.OpTruncate, Off: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpTruncate, resp.Status, resp.Msg)
}

func (t *threadTransport) sync() error {
	resp, err := t.call(wire.Request{Op: wire.OpSync}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpSync, resp.Status, resp.Msg)
}

func (t *threadTransport) lock(off, n int64) error {
	resp, err := t.call(wire.Request{Op: wire.OpLock, Off: off, N: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpLock, resp.Status, resp.Msg)
}

func (t *threadTransport) unlock(off, n int64) error {
	resp, err := t.call(wire.Request{Op: wire.OpUnlock, Off: off, N: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpUnlock, resp.Status, resp.Msg)
}

func (t *threadTransport) control(req []byte) ([]byte, error) {
	defer t.pf.invalidate() // the program may mutate content out of band
	resp, err := t.call(wire.Request{Op: wire.OpControl, Data: req}, nil)
	if err != nil {
		return nil, err
	}
	return resp.Data, wire.ToError(wire.OpControl, resp.Status, resp.Msg)
}

func (t *threadTransport) close() error {
	t.pf.quiesce()
	resp, callErr := t.call(wire.Request{Op: wire.OpClose}, nil)
	t.rv.Close()
	t.wg.Wait() // join every sentinel worker before returning
	if callErr != nil {
		if errors.Is(callErr, wire.ErrClosed) {
			return nil // already shut down
		}
		return callErr
	}
	return wire.ToError(wire.OpClose, resp.Status, resp.Msg)
}
