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
// rendezvous handoffs, reply delivery, and result copies of the others
// overlap — not unsynchronized program access.
const threadWorkers = 8

// threadReply carries a dispatch result back across the rendezvous: the
// response plus the release that returns its pooled read buffer. The caller
// must invoke release after consuming resp.Data.
type threadReply struct {
	resp    wire.Response
	release func()
}

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
	rv  *ipc.Rendezvous[*wire.Request, threadReply]
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
		rv: ipc.NewRendezvous[*wire.Request, threadReply](),
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
		req, reply, err := t.rv.Next()
		if err != nil {
			return
		}
		resp, release := t.d.dispatch(req)
		reply(threadReply{resp: resp, release: release})
		if req.Op == wire.OpClose {
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

// call performs one synchronous exchange with a sentinel worker. The
// returned release must be invoked after resp.Data has been consumed.
func (t *threadTransport) call(req *wire.Request) (wire.Response, func(), error) {
	req.Seq = t.seq.Next()
	r, err := t.rv.Call(req)
	if err != nil {
		return wire.Response{}, nil, wire.ErrClosed
	}
	return r.resp, r.release, nil
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
		resp, release, err := t.call(&wire.Request{Op: wire.OpRead, Off: off + int64(total), N: int64(chunk)})
		if err != nil {
			return total, err
		}
		n := copy(p[total:], resp.Data)
		release()
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
		resp, release, err := t.call(&wire.Request{Op: wire.OpWrite, Off: off + int64(total), Data: p[total : total+chunk]})
		if err != nil {
			return total, err
		}
		release()
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
	resp, release, err := t.call(&wire.Request{Op: wire.OpSize})
	if err != nil {
		return 0, err
	}
	release()
	return resp.N, wire.ToError(wire.OpSize, resp.Status, resp.Msg)
}

func (t *threadTransport) truncate(n int64) error {
	defer t.pf.invalidate()
	resp, release, err := t.call(&wire.Request{Op: wire.OpTruncate, Off: n})
	if err != nil {
		return err
	}
	release()
	return wire.ToError(wire.OpTruncate, resp.Status, resp.Msg)
}

func (t *threadTransport) sync() error {
	resp, release, err := t.call(&wire.Request{Op: wire.OpSync})
	if err != nil {
		return err
	}
	release()
	return wire.ToError(wire.OpSync, resp.Status, resp.Msg)
}

func (t *threadTransport) lock(off, n int64) error {
	resp, release, err := t.call(&wire.Request{Op: wire.OpLock, Off: off, N: n})
	if err != nil {
		return err
	}
	release()
	return wire.ToError(wire.OpLock, resp.Status, resp.Msg)
}

func (t *threadTransport) unlock(off, n int64) error {
	resp, release, err := t.call(&wire.Request{Op: wire.OpUnlock, Off: off, N: n})
	if err != nil {
		return err
	}
	release()
	return wire.ToError(wire.OpUnlock, resp.Status, resp.Msg)
}

func (t *threadTransport) control(req []byte) ([]byte, error) {
	defer t.pf.invalidate() // the program may mutate content out of band
	resp, release, err := t.call(&wire.Request{Op: wire.OpControl, Data: req})
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(resp.Data))
	copy(out, resp.Data)
	release()
	return out, wire.ToError(wire.OpControl, resp.Status, resp.Msg)
}

func (t *threadTransport) close() error {
	t.pf.quiesce()
	resp, release, callErr := t.call(&wire.Request{Op: wire.OpClose})
	t.rv.Close()
	t.wg.Wait() // join every sentinel worker before returning
	if callErr != nil {
		if errors.Is(callErr, wire.ErrClosed) {
			return nil // already shut down
		}
		return callErr
	}
	release()
	return wire.ToError(wire.OpClose, resp.Status, resp.Msg)
}
