package remote

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestLeaseEpochAdvancesWithoutHolders pins the gap-write invalidation rule:
// the lease epoch advances on EVERY write round, even when nobody holds a
// lease at the time. A client whose lease lapsed (connection drop) and who
// re-leases after a gap write must receive an epoch ahead of the one its
// cached blocks are tagged with — at the old epoch they would validate again
// and serve the pre-write bytes forever.
func TestLeaseEpochAdvancesWithoutHolders(t *testing.T) {
	lt := newLeaseTable(0)
	conn := new(int)

	e0 := lt.grant(conn, "obj", func(uint64) {}, func() {})
	if e0 == 0 {
		t.Fatal("grant returned epoch 0")
	}

	// The connection drops: the lease lapses with it.
	lt.dropConn(conn)

	// A write lands during the gap — no holders, so no revokes, but the
	// epoch must still advance.
	end := lt.beginWrite("obj")
	end()

	e1 := lt.grant(conn, "obj", func(uint64) {}, func() {})
	if e1 <= e0 {
		t.Fatalf("re-grant after gap write returned epoch %d, want > %d — "+
			"blocks cached before the write would validate again", e1, e0)
	}
}

// TestLeaseRoundWakesOnAck: a write round returns as soon as its last
// holder acks, not at the next tick of a timer. A thousand rounds against
// one promptly acking holder must take far less than a thousand
// timer-granularity waits (about a millisecond each).
func TestLeaseRoundWakesOnAck(t *testing.T) {
	lt := newLeaseTable(0)
	conn := new(int)
	revokes := make(chan uint64, 1)
	defer close(revokes)
	go func() {
		for e := range revokes {
			lt.ack(conn, e)
		}
	}()
	var kills atomic.Int32
	lt.grant(conn, "obj", func(e uint64) { revokes <- e }, func() { kills.Add(1) })

	const rounds = 1000
	start := time.Now()
	for i := 0; i < rounds; i++ {
		lt.beginWrite("obj")()
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Fatalf("%d of %d acked rounds took %v, want all in < 100ms — rounds are not woken by the ack",
				i+1, rounds, elapsed)
		}
	}
	if s := lt.stats(); s.Rounds != rounds || s.Revokes != rounds || s.RevokeTimeouts != 0 || kills.Load() != 0 {
		t.Fatalf("stats %+v, kills %d: want %d rounds and revokes, no timeouts", s, kills.Load(), rounds)
	}
}

// TestLeaseRevokeTimeoutEvicts pins the liveness backstop: a holder that
// never acks is evicted at the revoke timeout (its connection killed once),
// an acking holder beside it keeps its lease, and the evicted connection's
// next grant hands it the post-write epoch.
func TestLeaseRevokeTimeoutEvicts(t *testing.T) {
	const timeout = 20 * time.Millisecond
	lt := newLeaseTable(timeout)
	silent, acking := new(int), new(int)
	kills := make(chan struct{}, 2)
	e0 := lt.grant(silent, "obj", func(uint64) {}, func() { kills <- struct{}{} })
	var ackingKills atomic.Int32
	lt.grant(acking, "obj", func(e uint64) { lt.ack(acking, e) }, func() { ackingKills.Add(1) })

	start := time.Now()
	end := lt.beginWrite("obj")
	if elapsed := time.Since(start); elapsed < timeout {
		t.Fatalf("round with a silent holder returned after %v, before the %v timeout", elapsed, timeout)
	}
	end()

	select {
	case <-kills:
	case <-time.After(5 * time.Second):
		t.Fatal("silent holder's connection was never killed")
	}
	if s := lt.stats(); s.RevokeTimeouts != 1 {
		t.Fatalf("RevokeTimeouts = %d, want 1", s.RevokeTimeouts)
	}
	lt.mu.Lock()
	_, kept := lt.objs["obj"].holders[acking]
	_, evicted := lt.byConn[silent]
	lt.mu.Unlock()
	if !kept || evicted || ackingKills.Load() != 0 {
		t.Fatalf("after the round: acking holder kept = %v (kills %d), silent holder still bound = %v",
			kept, ackingKills.Load(), evicted)
	}

	// A later round has only the acking holder to wait for: the evicted
	// holder is not revoked or killed again.
	lt.beginWrite("obj")()
	select {
	case <-kills:
		t.Fatal("silent holder killed twice")
	case <-time.After(2 * timeout):
	}

	if e := lt.grant(silent, "obj", func(uint64) {}, func() {}); e != e0+2 {
		t.Fatalf("evicted connection re-leased at epoch %d, want the post-write epoch %d", e, e0+2)
	}
}

// TestLeaseHolderLeavesMidRound: every path that removes a holder during a
// round must wake the round, not leave it to the revoke timeout — and a
// grant issued during a round waits for the round's end.
func TestLeaseHolderLeavesMidRound(t *testing.T) {
	// holderLeaves runs leave mid-round on the only, never-acking holder;
	// the round must return well before the timeout, with nobody evicted.
	holderLeaves := func(t *testing.T, leave func(lt *leaseTable, conn any)) {
		lt := newLeaseTable(time.Second)
		conn := new(int)
		pushed := make(chan struct{}, 1)
		var kills atomic.Int32
		lt.grant(conn, "obj", func(uint64) { pushed <- struct{}{} }, func() { kills.Add(1) })

		done := make(chan struct{})
		go func() {
			lt.beginWrite("obj")()
			close(done)
		}()
		<-pushed
		leave(lt, conn)
		select {
		case <-done:
		case <-time.After(lt.timeout / 2):
			t.Fatalf("round still waiting %v after its holder left (timeout %v)", lt.timeout/2, lt.timeout)
		}
		if s := lt.stats(); s.RevokeTimeouts != 0 || kills.Load() != 0 {
			t.Fatalf("RevokeTimeouts = %d, kills = %d; want 0, 0", s.RevokeTimeouts, kills.Load())
		}
	}

	t.Run("dropConn", func(t *testing.T) {
		holderLeaves(t, func(lt *leaseTable, conn any) { lt.dropConn(conn) })
	})

	t.Run("rebind", func(t *testing.T) {
		holderLeaves(t, func(lt *leaseTable, conn any) {
			lt.grant(conn, "other", func(uint64) {}, func() {})
		})
	})

	t.Run("grant waits for round", func(t *testing.T) {
		lt := newLeaseTable(0)
		conn := new(int)
		e0 := lt.grant(conn, "obj", func(uint64) {}, func() {})
		lt.dropConn(conn)

		end := lt.beginWrite("obj")
		granted := make(chan uint64, 1)
		go func() { granted <- lt.grant(conn, "obj", func(uint64) {}, func() {}) }()
		select {
		case e := <-granted:
			t.Fatalf("grant returned epoch %d while the round was open", e)
		case <-time.After(20 * time.Millisecond):
		}
		end()
		select {
		case e := <-granted:
			if e != e0+1 {
				t.Fatalf("grant after the round returned epoch %d, want the round's epoch %d", e, e0+1)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("grant still blocked after the round ended")
		}
	})
}

// staticMap is a minimal ShardMap for server-side role tests: fixed owners
// for every name.
type staticMap struct{ owners []string }

func (m staticMap) Owners(string) []string { return m.owners }
func (m staticMap) Epoch() uint64          { return 1 }
func (m staticMap) Encode() []byte         { return []byte("static") }

// TestApplyRefusedOutsideFleetRole: OpApply is the primary→replica
// replication channel, not a client write path. A server that is not a
// fleet member, or is the object's primary, or does not own the object at
// all must refuse it — otherwise any client could write directly to a
// replica, bypassing the primary's write ordering and lease revocation and
// silently diverging the copies.
func TestApplyRefusedOutsideFleetRole(t *testing.T) {
	checkRefused := func(t *testing.T, srv *FileServer, addr, want string) {
		t.Helper()
		c, err := Dial(addr, "obj")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Apply(wire.ApplyWrite, 0, []byte("forged")); err == nil {
			t.Fatal("direct OpApply accepted, want refusal")
		} else if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal = %v, want it to mention %q", err, want)
		}
		// The store must be untouched by the refused apply.
		if data, ok := srv.Get("obj"); ok && string(data) == "forged" {
			t.Fatal("refused apply still mutated the store")
		}
	}

	t.Run("plain server", func(t *testing.T) {
		srv, addr := startServer(t)
		checkRefused(t, srv, addr, "not a fleet member")
	})

	t.Run("primary", func(t *testing.T) {
		srv, addr := startServer(t)
		srv.SetFleet(staticMap{owners: []string{addr, "127.0.0.1:1"}}, addr)
		checkRefused(t, srv, addr, "primary orders writes")
	})

	t.Run("non-owner", func(t *testing.T) {
		srv, addr := startServer(t)
		srv.SetFleet(staticMap{owners: []string{"127.0.0.1:1", "127.0.0.1:2"}}, addr)
		checkRefused(t, srv, addr, "not an owner")
	})

	t.Run("replica accepts", func(t *testing.T) {
		srv, addr := startServer(t)
		srv.SetFleet(staticMap{owners: []string{"127.0.0.1:1", addr}}, addr)
		c, err := Dial(addr, "obj")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Apply(wire.ApplyWrite, 0, []byte("replicated")); err != nil {
			t.Fatalf("apply on a replica: %v", err)
		}
		if data, ok := srv.Get("obj"); !ok || string(data) != "replicated" {
			t.Fatalf("replica store after apply = (%q, %v)", data, ok)
		}
	})
}
