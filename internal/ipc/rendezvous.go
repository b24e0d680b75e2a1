package ipc

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrRendezvousClosed is returned once either side of a Rendezvous shuts
// down.
var ErrRendezvousClosed = errors.New("ipc: rendezvous closed")

// Rendezvous is a synchronous request/response channel between caller
// goroutines and server goroutines, any number of each. It is the
// in-process analogue of the paper's DLL-with-thread mechanism, where
// "messages are implemented using events and shared memory": Call hands a
// request to the sentinel thread and blocks until the reply event fires,
// costing one goroutine handoff and no kernel crossing.
//
// Calls travel as pooled slots, each with its own reply event and reply
// function, so a steady-state exchange allocates nothing and costs one send
// and one receive on each side. The invariant a server may rely on: a call
// it has taken from Next gets exactly one reply before Call returns — Close
// does not cut it short. A server may therefore write into memory the
// request points at (a caller's read buffer) until it replies. Calls no
// server will take — made after Close, or still queued when Close runs —
// return ErrRendezvousClosed.
type Rendezvous[Req any, Resp any] struct {
	calls chan *rendezvousCall[Req, Resp]
	slots sync.Pool

	// mu orders enqueues against Close: senders hold the read side while
	// they send, Close takes the write side to close calls, so no send can
	// land after the queue is closed and drained.
	mu     sync.RWMutex
	closed atomic.Bool
	done   chan struct{} // closed first by Close: frees senders waiting on a full queue
	once   sync.Once
}

// rendezvousCall is one pooled call slot. done (capacity 1) is the reply
// event; reply is built once per slot and completes it.
type rendezvousCall[Req any, Resp any] struct {
	req   Req
	resp  Resp
	err   error
	done  chan struct{}
	reply func(Resp)
}

// finish stores the outcome and fires the reply event. Whoever received the
// slot from the queue calls it exactly once.
func (c *rendezvousCall[Req, Resp]) finish(resp Resp, err error) {
	c.resp, c.err = resp, err
	c.done <- struct{}{}
}

// rendezvousQueue is the request-queue depth. Each caller still blocks for
// its own reply — the exchange stays synchronous — but buffering the queue
// lets a server goroutine drain several pending calls per scheduling quantum
// instead of paying a wakeup handoff for every one, which is where the
// speedup of concurrent callers on few cores comes from.
const rendezvousQueue = 64

// NewRendezvous returns an open rendezvous.
func NewRendezvous[Req any, Resp any]() *Rendezvous[Req, Resp] {
	r := &Rendezvous[Req, Resp]{
		calls: make(chan *rendezvousCall[Req, Resp], rendezvousQueue),
		done:  make(chan struct{}),
	}
	r.slots.New = func() any {
		c := &rendezvousCall[Req, Resp]{done: make(chan struct{}, 1)}
		c.reply = func(resp Resp) { c.finish(resp, nil) }
		return c
	}
	return r
}

// Call delivers req to the server and blocks until the reply arrives. It
// returns ErrRendezvousClosed when no server will take the call.
func (r *Rendezvous[Req, Resp]) Call(req Req) (Resp, error) {
	c := r.slots.Get().(*rendezvousCall[Req, Resp])
	c.req = req
	if r.enqueue(c) {
		<-c.done
	} else {
		c.err = ErrRendezvousClosed
	}
	resp, err := c.resp, c.err
	var zreq Req
	var zresp Resp
	c.req, c.resp, c.err = zreq, zresp, nil
	r.slots.Put(c)
	return resp, err
}

// enqueue queues c for a server, reporting false when the rendezvous is
// closed. The send is a plain one unless the queue is full.
func (r *Rendezvous[Req, Resp]) enqueue(c *rendezvousCall[Req, Resp]) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed.Load() {
		return false
	}
	select {
	case r.calls <- c:
		return true
	default:
	}
	select {
	case r.calls <- c:
		return true
	case <-r.done:
		return false
	}
}

// Next blocks until a caller arrives, returning the request and a reply
// function the server must invoke exactly once. After Close it answers any
// call still queued with ErrRendezvousClosed on the caller's behalf and
// returns ErrRendezvousClosed once the queue is drained.
func (r *Rendezvous[Req, Resp]) Next() (Req, func(Resp), error) {
	for c := range r.calls {
		if r.closed.Load() {
			var zero Resp
			c.finish(zero, ErrRendezvousClosed)
			continue
		}
		return c.req, c.reply, nil
	}
	var zero Req
	return zero, nil, ErrRendezvousClosed
}

// Close releases both sides: blocked Next invocations and calls no server
// has taken return ErrRendezvousClosed, while a call a server already holds
// still returns that server's reply. Close is idempotent.
func (r *Rendezvous[Req, Resp]) Close() error {
	r.once.Do(func() {
		close(r.done)
		r.mu.Lock()
		r.closed.Store(true)
		close(r.calls)
		r.mu.Unlock()
		var zero Resp
		for c := range r.calls {
			c.finish(zero, ErrRendezvousClosed)
		}
	})
	return nil
}
