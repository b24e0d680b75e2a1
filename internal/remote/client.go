// Package remote implements the distributed information sources active files
// aggregate from and distribute to. The paper's evaluation runs its sentinel
// against "a remote service" on a cluster; here the services are real TCP
// servers (block file store, stock quotes, POP-style mail drops, a delivery
// sink) so the remote critical path (Figure 5, path 1) crosses a genuine
// network stack, albeit loopback. A source is a backend.Object, the one
// object contract, and a closed one answers backend.ErrObjectClosed.
package remote

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/ipc"
	"repro/internal/wire"
)

// DialOptions tunes the client's fault-tolerance envelope. The zero value
// selects the defaults below.
type DialOptions struct {
	// OpTimeout bounds each request/response exchange. Zero means no
	// per-operation deadline (an exchange can wait forever on a hung server).
	OpTimeout time.Duration
	// MaxRetries is how many times an idempotent operation re-dials and
	// replays after a transport failure. Zero selects the default (2);
	// negative disables retries entirely.
	MaxRetries int
	// BackoffBase and BackoffMax shape the exponential backoff between
	// reconnect attempts (equal jitter: each sleep is uniform in
	// [d/2, d], d doubling from Base up to Max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// DialTimeout bounds each TCP connect. Zero selects the default (2s).
	DialTimeout time.Duration
}

const (
	defaultMaxRetries  = 2
	defaultBackoffBase = 5 * time.Millisecond
	defaultBackoffMax  = 250 * time.Millisecond
	defaultDialTimeout = 2 * time.Second
)

func (o DialOptions) withDefaults() DialOptions {
	if o.MaxRetries == 0 {
		o.MaxRetries = defaultMaxRetries
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = defaultBackoffBase
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = defaultBackoffMax
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = defaultDialTimeout
	}
	return o
}

// session is one live connection epoch: a TCP conn plus the mux pipelining
// exchanges over it. Sessions are replaced wholesale on transport failure;
// pointer identity tells dropSession whether the failure it is reporting is
// stale (another caller already replaced the session).
type session struct {
	conn net.Conn
	mux  *ipc.Mux
}

func (s *session) teardown() {
	s.mux.Close()
	s.conn.Close()
}

// Client is a source backed by one object on a FileServer, reached over TCP.
// It is safe for concurrent use, and concurrent requests PIPELINE on the
// connection: each is tagged with a fresh Seq by an ipc.Mux and responses are
// matched as they arrive, so many exchanges share one round trip's wire time
// instead of queueing for a serialized connection.
//
// The client is fault tolerant: when the connection drops it redials with
// exponential backoff and replays IDEMPOTENT operations (reads, size) up to
// MaxRetries times. Writes and truncates are never replayed after the request
// may have reached the server — the server could have applied the first copy —
// so they fail fast on transport errors; the NEXT operation heals the
// connection. Application-level errors (the server answered with a status)
// are never retried.
type Client struct {
	addr string
	name string
	opts DialOptions

	closed atomic.Bool

	mu   sync.Mutex // guards sess, dialing, and revoke
	sess *session

	// revoke, when set, observes lease-revoke pushes from the server before
	// the client acknowledges them — the cache-invalidation hook. It runs on
	// the session's receive loop and must not block on another exchange.
	revoke func(name string, epoch, session uint64)

	reconnects atomic.Uint64
	inflight   atomic.Int64
}

var _ backend.Object = (*Client)(nil)

// Dial connects to the file server at addr and opens the named object, with
// default fault-tolerance options.
func Dial(addr, name string) (*Client, error) {
	return DialWith(addr, name, DialOptions{})
}

// DialWith is Dial with explicit DialOptions.
func DialWith(addr, name string, opts DialOptions) (*Client, error) {
	c := &Client{addr: addr, name: name, opts: opts.withDefaults()}
	c.mu.Lock()
	_, err := c.sessionLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("open remote object %q: %w", name, err)
	}
	return c, nil
}

// connect establishes one fresh session: TCP dial plus the OpOpen handshake
// re-binding the object, both under the configured deadlines.
func (c *Client) connect() (*session, error) {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial file server %s: %w", c.addr, err)
	}
	s := &session{conn: conn, mux: ipc.NewMux(conn, conn, nil)}
	// The session's id is the reconnect count at creation: connect runs under
	// c.mu and dropSession (the only bumper) also needs c.mu, so the value is
	// stable here and matches what Reconnects() reports while this session is
	// the live one. Pushes carry it so a handler can tell a revoke for the
	// lease it holds from a straggler delivered by a session already replaced.
	sid := c.reconnects.Load()
	// Every session — including pooled, currently idle ones — answers
	// lease-revoke pushes: the revoke hook (if any) invalidates first, then
	// the ack is posted. Without the auto-ack an idle pooled connection
	// holding a stale lease would stall every conflicting write until the
	// server's revoke timeout evicted it.
	s.mux.SetPushHandler(func(resp wire.Response) {
		c.mu.Lock()
		h := c.revoke
		c.mu.Unlock()
		if h != nil {
			h(string(resp.Data), uint64(resp.N), sid)
		}
		s.mux.Post(&wire.Request{Op: wire.OpLeaseAck, N: resp.N}, nil)
	})
	ctx, cancel := c.opCtx()
	resp, err := s.mux.RoundTripContext(ctx, &wire.Request{Op: wire.OpOpen, Data: []byte(c.name)}, nil)
	cancel()
	if err == nil {
		err = wire.ToError(wire.OpOpen, resp.Status, resp.Msg)
	}
	if err != nil {
		s.teardown()
		return nil, fmt.Errorf("reopen %q: %w", c.name, err)
	}
	return s, nil
}

func (c *Client) opCtx() (context.Context, context.CancelFunc) {
	if c.opts.OpTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), c.opts.OpTimeout)
}

// sessionLocked returns the live session, dialing a fresh one if none exists.
// Callers hold c.mu.
func (c *Client) sessionLocked() (*session, error) {
	if c.closed.Load() {
		return nil, backend.ErrObjectClosed
	}
	if c.sess != nil {
		return c.sess, nil
	}
	s, err := c.connect()
	if err != nil {
		return nil, err
	}
	c.sess = s
	return s, nil
}

// getSession returns the current session, establishing one when needed. Only
// the dial is serialized; exchanges pipeline outside the lock.
func (c *Client) getSession() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessionLocked()
}

// dropSession retires s after a transport failure. Stale reports (another
// caller already replaced the session) are ignored, so one failure epoch
// costs one reconnect, not one per in-flight exchange.
func (c *Client) dropSession(s *session) {
	c.mu.Lock()
	if c.sess == s {
		c.sess = nil
		c.reconnects.Add(1)
	} else {
		s = nil // someone else already tore it down
	}
	c.mu.Unlock()
	if s != nil {
		s.teardown()
	}
}

// Reconnects reports how many sessions have been retired after transport
// failures. Beyond chaos observability, it is the client's SESSION EPOCH: a
// lease is only as live as the session it was granted on, so lease holders
// record this value at grant time and treat any change as lease loss.
func (c *Client) Reconnects() uint64 { return c.reconnects.Load() }

// InFlight reports how many exchanges are currently outstanding — the load
// gauge power-of-two-choices replica selection compares.
func (c *Client) InFlight() int64 { return c.inflight.Load() }

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// SetRevokeHandler installs h to observe lease-revoke pushes before they are
// acknowledged. h runs on the session's receive loop: it must not wait for
// another exchange's response. Install it BEFORE acquiring a lease, so no
// revoke can slip through unobserved. session identifies the session the
// push arrived on — the Reconnects() value current while that session is
// live — so h can attribute the revoke to the lease granted on it rather
// than to one re-acquired since.
func (c *Client) SetRevokeHandler(h func(name string, epoch, session uint64)) {
	c.mu.Lock()
	c.revoke = h
	c.mu.Unlock()
}

// SessionLive reports whether the session identified by session (a
// Reconnects() value recorded when a lease was granted) is still the
// client's current one AND healthy — its receive loop has observed no
// transport failure. The mux fails as soon as the connection dies, even with
// no exchange outstanding, so this is how a lease holder serving purely from
// cache learns its revoke channel is gone: a dead or replaced session means
// the server has already forgotten the lease and cached data granted under
// it must not be trusted.
func (c *Client) SessionLive(session uint64) bool {
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	return s != nil && c.reconnects.Load() == session && s.mux.Err() == nil
}

// IsRefusal reports whether err is a typed admission-control refusal
// (quota, overload, shutdown) — a server's deliberate policy decision.
// Refusals are never retried and never trigger cross-replica failover:
// routing around admission control would defeat it.
func IsRefusal(err error) bool {
	return errors.Is(err, wire.ErrQuotaExceeded) ||
		errors.Is(err, wire.ErrOverloaded) ||
		errors.Is(err, wire.ErrShuttingDown)
}

// Lease acquires (or refreshes) a read lease on the bound object and returns
// its epoch. The caller tags cached data with the epoch; a lease-revoke push
// carrying a higher epoch invalidates it. Idempotent — re-requesting after a
// transport failure just re-grants on the new session.
func (c *Client) Lease() (uint64, error) {
	n, _, err := c.call(&wire.Request{Op: wire.OpLease}, nil, true)
	return uint64(n), err
}

// Apply forwards a primary-ordered mutation to this replica: kind is
// wire.ApplyWrite (data at off) or wire.ApplyTruncate (truncate to off).
// Like writes it is never replayed after the request may have reached the
// server.
func (c *Client) Apply(kind, off int64, data []byte) (int64, error) {
	n, _, err := c.call(&wire.Request{Op: wire.OpApply, N: kind, Off: off, Data: data}, nil, false)
	return n, err
}

// FetchShardMap dials addr and retrieves the fleet shard map it serves —
// no object binding needed, so a client can bootstrap routing from any one
// shard address. It returns the encoded map and its epoch.
func FetchShardMap(addr string, opts DialOptions) ([]byte, uint64, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, 0, fmt.Errorf("dial shard %s: %w", addr, err)
	}
	mux := ipc.NewMux(conn, conn, nil)
	defer func() {
		mux.Close()
		conn.Close()
	}()
	ctx := context.Background()
	if opts.OpTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.OpTimeout)
		defer cancel()
	}
	buf, rel := wire.GetBuf(1 << 16) // maps are small: a few KiB even at 64 shards
	defer rel()
	resp, err := mux.RoundTripContext(ctx, &wire.Request{Op: wire.OpShardMap}, buf)
	if err == nil {
		err = wire.ToError(wire.OpShardMap, resp.Status, resp.Msg)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("fetch shard map from %s: %w", addr, err)
	}
	return append([]byte(nil), resp.Data...), uint64(resp.N), nil
}

// backoff sleeps the attempt-th reconnect delay: exponential growth from
// BackoffBase capped at BackoffMax, with equal jitter so a fleet of waiters
// doesn't thunder back in lockstep.
func (c *Client) backoff(attempt int) {
	d := c.opts.BackoffBase << attempt
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	half := d / 2
	time.Sleep(half + time.Duration(rand.Int63n(int64(half)+1)))
}

// call performs one request/response exchange, transparently redialing and —
// for idempotent operations — replaying across transport failures. Any
// response payload lands in dst (which may be nil); copied reports how much.
func (c *Client) call(req *wire.Request, dst []byte, idempotent bool) (n int64, copied int, err error) {
	c.inflight.Add(1)
	defer c.inflight.Add(-1)
	for attempt := 0; ; attempt++ {
		s, serr := c.getSession()
		if serr != nil {
			// The operation was never sent, so retrying a failed dial is
			// safe for every op, idempotent or not — EXCEPT when the server
			// answered the redial's OpOpen with a typed policy refusal
			// (quota, overload, shutdown): that is a deliberate decision, not
			// a fault, and retrying it — here or against a replica — would
			// turn admission control into a retry storm. It surfaces
			// immediately.
			if errors.Is(serr, backend.ErrObjectClosed) || IsRefusal(serr) || attempt >= c.opts.MaxRetries {
				return 0, 0, serr
			}
			c.backoff(attempt)
			continue
		}

		ctx, cancel := c.opCtx()
		resp, rerr := s.mux.RoundTripContext(ctx, req, dst)
		cancel()
		if rerr == nil {
			if dst != nil {
				copied = len(resp.Data)
			}
			// The server answered: any error here is the application's,
			// deterministic on replay — never retried.
			if werr := wire.ToError(req.Op, resp.Status, resp.Msg); werr != nil {
				return resp.N, copied, werr
			}
			return resp.N, copied, nil
		}

		// Transport failure (connection lost, mux poisoned, or deadline
		// expired on a hung exchange). The session is unusable or suspect:
		// retire it so the next attempt — ours or a later call's — redials.
		c.dropSession(s)
		if c.closed.Load() {
			return 0, 0, backend.ErrObjectClosed
		}
		if !idempotent {
			return 0, 0, fmt.Errorf("remote %s not replayed (connection failed mid-exchange, may have applied): %w", req.Op, rerr)
		}
		if attempt >= c.opts.MaxRetries {
			return 0, 0, fmt.Errorf("remote %s failed after %d attempts: %w", req.Op, attempt+1, rerr)
		}
		c.backoff(attempt)
	}
}

// ReadAt implements backend.Object.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		_, copied, err := c.call(&wire.Request{Op: wire.OpRead, Off: off + int64(total), N: int64(chunk)}, p[total:total+chunk], true)
		total += copied
		if err != nil {
			return total, err
		}
		if copied == 0 {
			break
		}
	}
	return total, nil
}

// WriteAt implements backend.Object.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		n, _, err := c.call(&wire.Request{Op: wire.OpWrite, Off: off + int64(total), Data: p[total : total+chunk]}, nil, false)
		total += int(n)
		if err != nil {
			return total, err
		}
		if n == 0 {
			return total, fmt.Errorf("remote write stalled at %d bytes", total)
		}
	}
	return total, nil
}

// Size implements backend.Object.
func (c *Client) Size() (int64, error) {
	n, _, err := c.call(&wire.Request{Op: wire.OpSize}, nil, true)
	return n, err
}

// Truncate implements backend.Object.
func (c *Client) Truncate(n int64) error {
	_, _, err := c.call(&wire.Request{Op: wire.OpTruncate, Off: n}, nil, false)
	return err
}

// Close implements backend.Object, notifying the server and dropping the connection.
// In-flight exchanges are released with backend.ErrObjectClosed; none may replay.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.mu.Lock()
	s := c.sess
	c.sess = nil
	c.mu.Unlock()
	if s == nil {
		return nil
	}
	// Best effort goodbye; the transport close is what matters. Closing the
	// connection also stops the mux's receive loop and fails any stragglers.
	s.mux.Post(&wire.Request{Op: wire.OpClose}, nil)
	s.teardown()
	return nil
}
