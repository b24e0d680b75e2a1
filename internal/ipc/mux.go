package ipc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// ErrMuxClosed reports an exchange attempted on (or interrupted by) a closed
// Mux.
var ErrMuxClosed = errors.New("ipc: mux closed")

// ErrSeqExhausted reports that no free correlation key could be found for a
// new exchange: every retag attempt collided with an in-flight Seq. It can
// only occur when ~2^32 exchanges are pending, i.e. never in practice — it
// exists so a wrapped counter degrades into an error instead of silently
// orphaning the waiter that held the colliding key.
var ErrSeqExhausted = errors.New("ipc: no free sequence number for exchange")

// seqRetagLimit bounds how many fresh Seqs RoundTrip tries before giving up
// with ErrSeqExhausted.
const seqRetagLimit = 64

// muxResult is what a waiter receives: the matched response or the terminal
// channel error.
type muxResult struct {
	resp wire.Response
	err  error
}

// muxPending is one in-flight exchange, keyed by its request's Seq.
type muxPending struct {
	dst []byte // optional destination for the response payload
	ch  chan muxResult
}

// Mux multiplexes concurrent request/response exchanges over one ordered
// command channel and one ordered response channel — the procctl pipe pair.
// Any number of goroutines may have exchanges in flight at once; each
// request is tagged with a fresh Seq, and a single receive loop routes every
// response (in whatever order the peer produced it) to the matching waiter.
// This replaces strict request/response lockstep: the channel pair carries a
// pipeline, and wire.Request.Seq is the correlation key.
//
// Failure discipline: the framed streams carry no resynchronization points,
// so any error that may have left a partial frame on a channel — a short
// command write, a truncated payload — poisons the whole mux via Fail, and
// every current and future exchange reports the terminal error promptly.
// Waits are cancellable (RoundTripContext): an abandoned waiter's response
// is read and discarded when it eventually arrives, keeping the response
// stream in sync for every other exchange.
//
// Send path: command frames from concurrent exchanges are group-committed by
// a wire.BatchWriter — the first sender flushes every frame accumulated while
// it held the channel in one vectored write, so N pipelined exchanges cost
// ~1 write syscall instead of N. A lone exchange still flushes immediately.
//
// Receive path: the response stream is read through a drain-mode buffer
// (wire.DrainReader) — one read syscall pulls every byte the channel has
// ready, and the loop then decodes frame after frame out of the buffer, so
// N pipelined responses arriving together cost ~1 wakeup instead of N. A
// self-buffered source (an shm lane) is decoded directly; it already
// drains without syscalls.
type Mux struct {
	bw *wire.BatchWriter // batching command-frame writer (plus Post payload channel)
	dr *wire.DrainReader // response drain buffer; nil over a self-buffered source

	seq        wire.SeqCounter
	recvFrames atomic.Uint64 // response frames routed by the receive loop
	recvDone   chan struct{} // closed when the receive loop returns

	mu      sync.Mutex
	pending map[uint32]muxPending
	err     error // terminal failure; set once, fails all current and future exchanges

	// push receives server-initiated frames (Seq == wire.PushSeq) — lease
	// revokes and other notifications the peer sends without a request.
	// Guarded by mu; called from the receive loop, so it must not block on
	// another exchange's response (sending with Post is fine).
	push func(wire.Response)
}

// NewMux returns a mux sending command frames on ctrl, matching response
// frames read from resp, and (optionally, for Post) streaming payloads on
// data. The receive loop runs until resp errors or the mux is closed.
func NewMux(ctrl io.Writer, resp io.Reader, data io.Writer) *Mux {
	src, dr := wire.WrapDrain(resp)
	m := &Mux{
		bw:       wire.NewBatchWriter(ctrl, data),
		dr:       dr,
		pending:  make(map[uint32]muxPending),
		recvDone: make(chan struct{}),
	}
	// The pending-reply count tells the batch writer how deep the pipeline
	// is, letting its flush leader court company when callers overlap.
	// Safe lock order: frames are submitted outside m.mu, so the hint may
	// take it.
	m.bw.SetLoadHint(func() int {
		m.mu.Lock()
		n := len(m.pending)
		m.mu.Unlock()
		return n
	})
	go m.receive(wire.NewReader(src))
	return m
}

// BatchStats reports the send path's flush amortization — how many frames
// each vectored write carried on average.
func (m *Mux) BatchStats() wire.BatchStats { return m.bw.Stats() }

// RecvStats snapshots the receive path's wakeup amortization: response
// frames decoded versus read syscalls that delivered them. Wakeups is zero
// over a self-buffered source (shm lanes), where the receive path makes no
// read syscalls at all on the hot path.
type RecvStats struct {
	Frames  uint64 // response frames routed to waiters (or discarded)
	Wakeups uint64 // read syscalls the drain buffer issued to get them
}

// RecvStatsSnapshot reports the receive loop's drain amortization.
func (m *Mux) RecvStatsSnapshot() RecvStats {
	s := RecvStats{Frames: m.recvFrames.Load()}
	if m.dr != nil {
		s.Wakeups = m.dr.Stats().Fills
	}
	return s
}

// RecvDone is closed once the receive loop has returned: every response the
// peer wrote before its channel ended has been routed.
func (m *Mux) RecvDone() <-chan struct{} { return m.recvDone }

// receive routes response frames to waiters by Seq until the channel fails.
// Payloads are read off the stream directly into the waiter's destination
// buffer — the split header/payload decode means the channel-to-caller copy
// is the only one on the read path. Behind a DrainReader, every complete
// frame a wakeup delivered is decoded before the loop can block again; the
// pooled drain buffer is released when the loop exits.
func (m *Mux) receive(r *wire.Reader) {
	defer close(m.recvDone)
	if m.dr != nil {
		defer m.dr.Release()
	}
	for {
		resp, payloadLen, err := r.ReadResponseHeader()
		if err != nil {
			m.Fail(err)
			return
		}
		m.recvFrames.Add(1)
		if resp.Seq == wire.PushSeq {
			// Server-initiated frame: no waiter holds this Seq. The payload
			// lands in a fresh buffer (pushes are rare and small) and the
			// handler runs on the receive loop, so by the time the next frame
			// is decoded the push has been fully acted on — the ordering the
			// lease protocol relies on.
			if payloadLen > 0 {
				data := make([]byte, payloadLen)
				if err := r.ReadPayload(data); err != nil {
					m.Fail(err)
					return
				}
				resp.Data = data
			}
			m.mu.Lock()
			h := m.push
			m.mu.Unlock()
			if h != nil {
				h(resp)
			}
			continue
		}
		m.mu.Lock()
		p, ok := m.pending[resp.Seq]
		delete(m.pending, resp.Seq)
		m.mu.Unlock()
		if !ok {
			// Response for an abandoned exchange; drop its payload too.
			if err := r.DiscardPayload(); err != nil {
				m.Fail(err)
				return
			}
			continue
		}
		if payloadLen > 0 {
			dst := p.dst
			if len(dst) >= payloadLen {
				dst = dst[:payloadLen]
			} else {
				// Destination missing or too small — rare cold path.
				dst = make([]byte, payloadLen)
			}
			if err := r.ReadPayload(dst); err != nil {
				p.ch <- muxResult{err: err}
				m.Fail(err)
				return
			}
			resp.Data = dst
		}
		p.ch <- muxResult{resp: resp}
	}
}

// Fail records err as the mux's terminal error (first failure wins) and
// releases every waiter with it. It is how external supervisors — a sentinel
// child watcher noticing the subprocess died, a connection owner tearing
// down — convert a dead peer into prompt errors instead of indefinite
// blocks. Safe to call any number of times from any goroutine.
func (m *Mux) Fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	err = m.err
	for seq, p := range m.pending {
		delete(m.pending, seq)
		p.ch <- muxResult{err: err}
	}
	m.mu.Unlock()
}

// Err returns the mux's terminal error, or nil while it is healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// SetPushHandler installs h for server-initiated frames (Seq ==
// wire.PushSeq). h runs on the receive loop: it must not wait for another
// exchange's response, but may send (Post) — the lease-ack path. A nil h
// drops pushes.
func (m *Mux) SetPushHandler(h func(wire.Response)) {
	m.mu.Lock()
	m.push = h
	m.mu.Unlock()
}

// sendValidationErr reports whether err is a pure encode-time validation
// failure, raised before any bytes reach the channel. Every other send error
// may have left a partial frame on the stream and must poison the mux.
func sendValidationErr(err error) bool {
	return errors.Is(err, wire.ErrFrameTooLarge) || errors.Is(err, wire.ErrBadOp)
}

// RoundTrip assigns req a fresh Seq, sends it, and blocks until the matching
// response arrives — however many other exchanges are in flight and in
// whatever order the peer answers. When dst is non-nil and large enough, the
// response payload lands in dst (the returned Response's Data aliases it);
// otherwise a fresh buffer is allocated.
func (m *Mux) RoundTrip(req *wire.Request, dst []byte) (wire.Response, error) {
	return m.RoundTripContext(context.Background(), req, dst)
}

// RoundTripContext is RoundTrip with a cancellation point: when ctx expires
// before the response arrives, the exchange is abandoned and ctx's error
// returned. Abandonment keeps the stream in sync — the request stays on the
// wire, and the receive loop discards the late response (header and payload)
// when the peer eventually produces it. The mux itself stays healthy; only
// this waiter gives up. If the response raced the cancellation, it is
// delivered normally.
func (m *Mux) RoundTripContext(ctx context.Context, req *wire.Request, dst []byte) (wire.Response, error) {
	req.Seq = m.seq.Next()
	p := muxPending{dst: dst, ch: make(chan muxResult, 1)}

	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return wire.Response{}, fmt.Errorf("%s exchange: %w", req.Op, m.err)
	}
	// A wrapped Seq counter could hand out a key some slow exchange still
	// holds; registering the new waiter under it would orphan the old one
	// (its response would be routed here and its goroutine blocked forever).
	// Retag until the key is free. wire.PushSeq is never free: it names
	// server-initiated frames, so a wrapped counter skips it too.
	for retags := 0; ; retags++ {
		if _, dup := m.pending[req.Seq]; !dup && req.Seq != wire.PushSeq {
			break
		}
		if retags == seqRetagLimit {
			m.mu.Unlock()
			return wire.Response{}, fmt.Errorf("%s exchange: %w", req.Op, ErrSeqExhausted)
		}
		req.Seq = m.seq.Next()
	}
	m.pending[req.Seq] = p
	m.mu.Unlock()

	if err := m.bw.WriteRequest(req); err != nil {
		m.mu.Lock()
		delete(m.pending, req.Seq)
		m.mu.Unlock()
		if !sendValidationErr(err) {
			// The command frame may be partially written: the control stream
			// can no longer be trusted to carry aligned frames.
			m.Fail(fmt.Errorf("ipc: command channel desynchronized: %w", err))
		}
		return wire.Response{}, fmt.Errorf("send %s command: %w", req.Op, err)
	}

	select {
	case res := <-p.ch:
		return finishRoundTrip(req.Op, res)
	case <-ctx.Done():
	}

	// Cancelled. If the waiter is still registered, abandon it: the receive
	// loop will discard the late response. If it is gone, the response (or a
	// terminal error) is already in flight to p.ch — possibly mid-copy into
	// dst — so it must be awaited, not abandoned.
	m.mu.Lock()
	if _, still := m.pending[req.Seq]; still {
		delete(m.pending, req.Seq)
		m.mu.Unlock()
		return wire.Response{}, fmt.Errorf("%s exchange: %w", req.Op, ctx.Err())
	}
	m.mu.Unlock()
	return finishRoundTrip(req.Op, <-p.ch)
}

// finishRoundTrip unwraps a waiter's result into RoundTrip's return shape.
func finishRoundTrip(op wire.Op, res muxResult) (wire.Response, error) {
	if res.err != nil {
		return wire.Response{}, fmt.Errorf("read %s response: %w", op, res.err)
	}
	return res.resp, nil
}

// Post sends req without waiting for any response — the procctl write path,
// where "writes are issued without waiting for their completion". When
// payload is non-empty it is appended to the same send batch as the command
// frame, so the payload order on the data channel always matches the command
// order on the control channel, no matter how many goroutines post
// concurrently.
//
// A failed or partial batch write desynchronizes the stream — the peer would
// misattribute every later frame or payload byte — so it poisons the mux:
// all subsequent exchanges fail with the recorded error instead of silently
// corrupting offsets.
func (m *Mux) Post(req *wire.Request, payload []byte) error {
	req.Seq = m.seq.Next()
	if req.Seq == wire.PushSeq { // wrapped counter; the echo would look like a push
		req.Seq = m.seq.Next()
	}

	m.mu.Lock()
	err := m.err
	m.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%s exchange: %w", req.Op, err)
	}
	if len(payload) > 0 && !m.bw.HasData() {
		// Validated before the command frame ships: announcing a payload the
		// data channel cannot carry would wedge the peer waiting for bytes
		// that never come.
		return fmt.Errorf("send %s payload: no data channel", req.Op)
	}

	if err := m.bw.WritePost(req, payload); err != nil {
		if !sendValidationErr(err) {
			m.Fail(fmt.Errorf("ipc: channel desynchronized mid-batch: %w", err))
		}
		return fmt.Errorf("send %s command: %w", req.Op, err)
	}
	return nil
}

// Close fails every pending and future exchange with ErrMuxClosed. It does
// not close the underlying channels — their owner does, which also unblocks
// the receive loop. Close is idempotent; an earlier terminal error wins.
func (m *Mux) Close() error {
	m.Fail(ErrMuxClosed)
	return nil
}
