package remote

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRevokeTimeout bounds how long a write waits for lease holders to
// acknowledge a revoke before their connections are forcibly closed. It is
// the lease protocol's liveness backstop: a client that cannot ack within
// this window loses its session (and with it any claim to cached validity)
// rather than stalling writers forever.
const DefaultRevokeTimeout = time.Second

// LeaseStats counts lease-protocol activity on one server.
type LeaseStats struct {
	Grants         uint64 // leases issued (including re-grants)
	Rounds         uint64 // write rounds that revoked at least one holder
	Revokes        uint64 // revoke pushes sent
	RevokeTimeouts uint64 // holders evicted for not acking in time
}

// leaseTable is the server half of the read-lease protocol. Each object has
// a monotonically increasing lease EPOCH; granting a lease hands the current
// epoch to the client, which tags its cached blocks with it. Before a
// conflicting write applies, the table runs a revoke ROUND: the epoch is
// bumped, every holder is pushed a revoke frame carrying the new epoch, and
// the write proceeds only once every holder has acked (having invalidated
// its cache) — or been evicted at the revoke timeout, losing its connection
// and therefore its session. Grants issued while a round is in progress wait
// until it completes, so a freshly granted lease always observes the write's
// bytes.
//
// Nothing polls. A running round is a channel the waiting grants and writes
// block on, closed when the round ends; the round's ack wait is a second
// channel, closed by whichever ack, disconnection or rebind leaves no holder
// behind the round's epoch.
//
// Holders are keyed by connection: a connection binds one object, acks and
// disconnections are attributed to it, and a closed connection's lease
// lapses immediately (its client can no longer serve reads without redialing
// and re-leasing).
type leaseTable struct {
	timeout time.Duration

	mu     sync.Mutex
	objs   map[string]*objLease
	byConn map[any]*connLease

	grants   atomic.Uint64
	rounds   atomic.Uint64
	revokes  atomic.Uint64
	timeouts atomic.Uint64
}

type objLease struct {
	name    string
	epoch   uint64
	round   chan struct{} // non-nil while a revoke/apply round runs; closed when it ends
	target  uint64        // the running round's epoch
	settled chan struct{} // non-nil while the round waits for acks; closed when none is owed
	holders map[any]*connLease
}

// settle closes the round's ack wait once no holder is behind its epoch.
// Every path that advances or removes a holder calls it with t.mu held.
func (o *objLease) settle() {
	if o.settled == nil {
		return
	}
	for _, h := range o.holders {
		if h.acked < o.target {
			return
		}
	}
	close(o.settled)
	o.settled = nil
}

// connLease is one connection's lease on one object.
type connLease struct {
	obj   *objLease
	push  func(epoch uint64) // enqueue a revoke frame on the holder's connection
	kill  func()             // force-close the holder's connection (timeout eviction)
	acked uint64             // highest epoch the holder has acknowledged
}

func newLeaseTable(timeout time.Duration) *leaseTable {
	if timeout <= 0 {
		timeout = DefaultRevokeTimeout
	}
	return &leaseTable{
		timeout: timeout,
		objs:    make(map[string]*objLease),
		byConn:  make(map[any]*connLease),
	}
}

func (t *leaseTable) stats() LeaseStats {
	return LeaseStats{
		Grants:         t.grants.Load(),
		Rounds:         t.rounds.Load(),
		Revokes:        t.revokes.Load(),
		RevokeTimeouts: t.timeouts.Load(),
	}
}

func (t *leaseTable) obj(name string) *objLease {
	o := t.objs[name]
	if o == nil {
		o = &objLease{name: name, epoch: 1, holders: make(map[any]*connLease)}
		t.objs[name] = o
	}
	return o
}

// awaitRound blocks until no write round runs on o. t.mu is held on entry
// and on return; it is released while waiting, so the condition is
// re-checked each time a round ends (another waiter may open the next one).
func (t *leaseTable) awaitRound(o *objLease) {
	for o.round != nil {
		round := o.round
		t.mu.Unlock()
		<-round
		t.mu.Lock()
	}
}

// grant issues (or refreshes) conn's lease on name, returning the lease
// epoch. It blocks while a write round is in progress, so the returned epoch
// is never about to be revoked by an already-committed write. push enqueues
// a revoke frame on the connection; kill force-closes it.
func (t *leaseTable) grant(conn any, name string, push func(uint64), kill func()) uint64 {
	t.mu.Lock()
	o := t.obj(name)
	t.awaitRound(o)
	if prev := t.byConn[conn]; prev != nil && prev.obj != o {
		delete(prev.obj.holders, conn) // connection rebound to another object
		prev.obj.settle()
	}
	h := o.holders[conn]
	if h == nil {
		h = &connLease{obj: o, push: push, kill: kill}
		o.holders[conn] = h
		t.byConn[conn] = h
	}
	h.acked = o.epoch // holding the current epoch implies nothing to revoke
	epoch := o.epoch
	t.mu.Unlock()
	t.grants.Add(1)
	return epoch
}

// ack records conn's acknowledgement of a revoke up to epoch.
func (t *leaseTable) ack(conn any, epoch uint64) {
	t.mu.Lock()
	if h := t.byConn[conn]; h != nil && epoch > h.acked {
		h.acked = epoch
		h.obj.settle()
	}
	t.mu.Unlock()
}

// dropConn releases conn's lease, if any. Called when a connection closes
// (its client must redial and re-lease, so the lease lapses with it) and on
// rebind.
func (t *leaseTable) dropConn(conn any) {
	t.mu.Lock()
	if h := t.byConn[conn]; h != nil {
		delete(h.obj.holders, conn)
		delete(t.byConn, conn)
		h.obj.settle()
	}
	t.mu.Unlock()
}

// beginWrite opens a write round on name: it serializes with other rounds,
// bumps the epoch, pushes revokes to any holders, and waits for every holder
// to ack or be evicted at the timeout. The returned func closes the round;
// the caller applies the write (and any replica forwarding) BETWEEN the two,
// so leases granted after the round observe the new bytes.
func (t *leaseTable) beginWrite(name string) func() {
	t.mu.Lock()
	o := t.obj(name)
	t.awaitRound(o)
	round := make(chan struct{})
	o.round = round

	// The epoch advances on EVERY write, holders or not. A client whose lease
	// lapsed (its connection dropped) still holds blocks tagged with the old
	// epoch; if a write landed while it was gone, the epoch it re-leases at
	// must be ahead of those tags or they would validate again and serve the
	// pre-write bytes forever. Revoke work is still skipped when nobody holds
	// a lease.
	o.epoch++
	target := o.epoch

	if len(o.holders) > 0 {
		pushes := make([]func(uint64), 0, len(o.holders))
		for _, h := range o.holders {
			if h.acked < target {
				pushes = append(pushes, h.push)
			}
		}
		settled := make(chan struct{})
		o.target, o.settled = target, settled
		o.settle() // at once if no holder is behind target (pushes is empty)
		t.mu.Unlock()
		t.rounds.Add(1)
		for _, p := range pushes {
			p(target)
			t.revokes.Add(1)
		}

		timer := time.NewTimer(t.timeout)
		select {
		case <-settled:
			timer.Stop()
			t.mu.Lock()
		case <-timer.C:
			// Liveness backstop: evict unresponsive holders. Closing the
			// connection invalidates the client's session — it cannot keep
			// serving cached blocks without redialing and re-leasing, which
			// hands it the post-write epoch. An ack that raced the timer
			// has already left its holder at target and is kept.
			t.mu.Lock()
			for conn, h := range o.holders {
				if h.acked < target {
					delete(o.holders, conn)
					delete(t.byConn, conn)
					t.timeouts.Add(1)
					go h.kill() // conn close; async, the conn teardown re-calls dropConn harmlessly
				}
			}
			o.settled = nil
		}
	}
	t.mu.Unlock()

	return func() {
		t.mu.Lock()
		o.round = nil
		t.mu.Unlock()
		close(round)
	}
}
