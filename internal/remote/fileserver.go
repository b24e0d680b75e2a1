package remote

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/daemon"
	"repro/internal/wire"
)

// FileServer is a TCP block-file service serving the named objects of any
// backend. Clients speak the same framed protocol as the active-file control
// channel: an OpOpen naming the object, then OpRead/OpWrite/OpSize/
// OpTruncate, and OpClose. One connection accesses one object.
//
// The default store is the in-memory backend; NewFileServerWith mounts any
// other — a directory (nativefs), a read-only view, a fault-injecting
// wrapper, even another FileServer (remotefs), so backends compose across
// the network.
//
// The server supports fault and latency injection so sentinel code paths for
// slow and failing sources can be exercised.
type FileServer struct {
	store backend.Backend

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed bool

	// reg, when set, makes the server multi-tenant: every session is
	// admitted against per-tenant quotas and every operation passes
	// admission control, with activity accounted daemon-wide. Without a
	// registry the server admits everything (the embedded/test
	// configuration).
	reg *daemon.Registry

	// draining flips when shutdown begins: in-flight operations finish,
	// new requests are refused with wire.ErrShuttingDown, and connections
	// close only once quiet — at frame boundaries, never mid-reply.
	draining     atomic.Bool
	inflightOps  atomic.Int64 // ops between intake and reply flush
	drainTimeout time.Duration

	// leases is the server half of the read-lease protocol: clients tag
	// cached blocks with granted epochs, and conflicting writes revoke
	// every holder before applying. Always present; idle until a client
	// sends OpLease.
	leases *leaseTable

	// Fleet membership, when this server is one shard of a fleet map
	// (SetFleet): writes are refused unless this server is the object's
	// primary, and a primary synchronously forwards applied writes to the
	// object's replicas through pooled peer clients. Atomic so membership
	// can be installed after Start (tests learn ephemeral addresses only
	// then) without racing the serve loops.
	fleet atomic.Pointer[fleetMembership]

	peersMu sync.Mutex
	peers   map[string]*Client // key addr+"\x00"+name

	applyForwards atomic.Uint64 // replica applies forwarded as primary

	latency   time.Duration
	failNext  error
	stallNext time.Duration
}

// ShardMap is the placement view a FileServer enforces when it is one shard
// of a fleet: who owns an object (primary first), the map's version, and its
// wire encoding for OpShardMap. fleet.Map implements it; the indirection
// keeps this package free of a dependency on the fleet package.
type ShardMap interface {
	Owners(name string) []string
	Epoch() uint64
	Encode() []byte
}

// fleetMembership pairs the map with this server's own address in it.
type fleetMembership struct {
	m    ShardMap
	self string
}

// DefaultDrainTimeout bounds how long Close waits for in-flight
// operations to finish before tearing connections down anyway.
const DefaultDrainTimeout = 2 * time.Second

// NewFileServer returns a server over an empty in-memory object store.
func NewFileServer() *FileServer {
	return NewFileServerWith(backend.NewMem())
}

// NewFileServerWith returns a server exporting store's objects.
func NewFileServerWith(store backend.Backend) *FileServer {
	return &FileServer{
		store:  store,
		conns:  make(map[net.Conn]struct{}),
		leases: newLeaseTable(0),
		peers:  make(map[string]*Client),
	}
}

// Store returns the backend the server is exporting.
func (s *FileServer) Store() backend.Backend { return s.store }

// SetFleet makes the server one shard of a fleet: m is the shard map it
// serves over OpShardMap and enforces (writes are refused unless self — this
// server's address as it appears in the map — is the object's primary), and
// a primary forwards applied writes to the object's replicas synchronously
// before replying. Safe to call anytime, though membership should be in
// place before clients route by it.
func (s *FileServer) SetFleet(m ShardMap, self string) {
	s.fleet.Store(&fleetMembership{m: m, self: self})
}

// LeaseStats reports lease-protocol counters.
func (s *FileServer) LeaseStats() LeaseStats { return s.leases.stats() }

// ApplyForwards reports how many replica applies this server has forwarded
// as a primary.
func (s *FileServer) ApplyForwards() uint64 { return s.applyForwards.Load() }

// SetRegistry installs the multi-tenant session registry. Every
// connection's OpOpen is then admitted against the named tenant's session
// quota (daemon.TenantOf maps object names to tenants) and every
// operation passes admission control. Set it before Start.
func (s *FileServer) SetRegistry(reg *daemon.Registry) { s.reg = reg }

// Registry returns the installed session registry, if any.
func (s *FileServer) Registry() *daemon.Registry { return s.reg }

// SetDrainTimeout overrides how long Close lets in-flight operations
// finish before forcing connections down. Set it before Start.
func (s *FileServer) SetDrainTimeout(d time.Duration) { s.drainTimeout = d }

// Put creates or replaces the named object's contents in place, so sessions
// already bound to the name observe the new bytes. It is a best-effort
// seeding helper: on a read-only store it is a no-op.
func (s *FileServer) Put(name string, data []byte) {
	if m, ok := s.store.(*backend.Mem); ok {
		m.Put(name, data)
		return
	}
	obj, err := s.store.Open(name)
	if err != nil {
		return
	}
	defer obj.Close()
	if err := obj.Truncate(0); err != nil {
		return
	}
	obj.WriteAt(data, 0)
}

// Get returns a copy of the named object's contents.
func (s *FileServer) Get(name string) ([]byte, bool) {
	if m, ok := s.store.(*backend.Mem); ok {
		return m.Get(name)
	}
	// Don't let a writable backend's open-creates semantics turn a probe
	// into a creation.
	if st, ok := s.store.(backend.Stater); ok {
		if _, err := st.Stat(name); err != nil {
			return nil, false
		}
	}
	obj, err := s.store.Open(name)
	if err != nil {
		return nil, false
	}
	defer obj.Close()
	size, err := obj.Size()
	if err != nil {
		return nil, false
	}
	data := make([]byte, size)
	if size > 0 {
		if _, err := obj.ReadAt(data, 0); err != nil && !errors.Is(err, io.EOF) {
			return nil, false
		}
	}
	return data, true
}

// SetLatency injects a fixed per-operation delay, simulating a distant or
// loaded source.
func (s *FileServer) SetLatency(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
}

// FailNext makes the next object operation fail with err (once).
func (s *FileServer) FailNext(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = err
}

// StallNext makes the next object operation hang for d before answering
// (once) — a server that is alive but unresponsive, for exercising client
// deadlines. Keep d short in tests: Close waits for in-flight operations,
// including a stalled one.
func (s *FileServer) StallNext(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stallNext = d
}

// Start begins listening on addr (use "127.0.0.1:0" for an ephemeral port)
// and serving connections in the background. It returns the bound address.
func (s *FileServer) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("file server listen: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *FileServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close gracefully shuts the server down: it stops accepting, lets
// in-flight operations finish (bounded by the drain timeout), refuses new
// requests with wire.ErrShuttingDown, and only then closes connections —
// at frame boundaries, so clients see a typed rejection or a clean EOF
// instead of a torn frame.
func (s *FileServer) Close() error {
	d := s.drainTimeout
	if d <= 0 {
		d = DefaultDrainTimeout
	}
	s.Shutdown(d)
	return nil
}

// Kill tears the server down ABRUPTLY: the listener and every live
// connection close immediately, mid-frame if one is in flight. It is the
// crash simulation the chaos suites use; real shutdown goes through Close
// or Shutdown, which drain first.
func (s *FileServer) Kill() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	// Deliberately NOT flipping the draining gate: a crashed server never
	// answers with a typed shutdown status — clients must see only torn
	// connections, or failover tests would mistake the death throes for a
	// policy refusal.
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	s.closePeers()
}

// Shutdown is Close with an explicit drain deadline. It reports whether
// the server quiesced (every in-flight operation finished and its reply
// flushed) before connections were torn down; false means the deadline
// expired with work still running and the teardown was forced.
func (s *FileServer) Shutdown(timeout time.Duration) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return s.inflightOps.Load() == 0
	}
	s.closed = true
	ln := s.ln
	s.mu.Unlock()

	// Stop intake: no new connections, and every request read from here on
	// is answered with the typed shutdown status instead of dispatched.
	s.draining.Store(true)
	if s.reg != nil {
		s.reg.Drain(0) // flip the registry too; the wait happens below
	}
	if ln != nil {
		ln.Close()
	}

	// Let in-flight operations settle — each is counted from intake until
	// its reply has flushed, so reaching zero means every connection sits
	// at a frame boundary.
	clean := true
	deadline := time.Now().Add(timeout)
	for s.inflightOps.Load() > 0 {
		if time.Now().After(deadline) {
			clean = false
			break
		}
		time.Sleep(500 * time.Microsecond)
	}

	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.closePeers()
	return clean
}

// notPrimary returns a refusal message when this server is part of a fleet
// but not the named object's primary — writes must go to the primary, which
// orders them and drives replication.
func (s *FileServer) notPrimary(name string) string {
	fm := s.fleet.Load()
	if fm == nil {
		return ""
	}
	if p := fm.m.Owners(name)[0]; p != fm.self {
		return "not primary for object (primary is " + p + ")"
	}
	return ""
}

// applyRefusal returns a refusal message unless this server is a NON-primary
// owner (replica) of name in an installed fleet map — the only role that
// legitimately receives primary-forwarded applies. Without the check any
// opened connection could mutate through OpApply, bypassing the primary's
// write ordering and the lease revocation on the other owners, silently
// diverging replicas.
func (s *FileServer) applyRefusal(name string) string {
	fm := s.fleet.Load()
	if fm == nil {
		return "apply refused: not a fleet member"
	}
	for i, a := range fm.m.Owners(name) {
		if a != fm.self {
			continue
		}
		if i == 0 {
			return "apply refused: the primary orders writes (use OpWrite)"
		}
		return ""
	}
	return "apply refused: not an owner of object"
}

// peer returns the pooled client bound to name on the replica at addr,
// dialing on first use. Peer connections carry OpApply forwarding only.
func (s *FileServer) peer(addr, name string) (*Client, error) {
	key := addr + "\x00" + name
	s.peersMu.Lock()
	c := s.peers[key]
	s.peersMu.Unlock()
	if c != nil {
		return c, nil
	}
	c, err := DialWith(addr, name, DialOptions{
		OpTimeout:   2 * DefaultRevokeTimeout,
		DialTimeout: time.Second,
	})
	if err != nil {
		return nil, err
	}
	s.peersMu.Lock()
	if prev := s.peers[key]; prev != nil {
		s.peersMu.Unlock()
		c.Close()
		return prev, nil
	}
	s.peers[key] = c
	s.peersMu.Unlock()
	return c, nil
}

func (s *FileServer) closePeers() {
	s.peersMu.Lock()
	peers := s.peers
	s.peers = make(map[string]*Client)
	s.peersMu.Unlock()
	for _, c := range peers {
		c.Close()
	}
}

// replicate forwards an applied mutation to every replica of name, in owner
// order, synchronously — the write's reply waits until each replica has
// applied (running its own local revoke round), so a lease granted by any
// replica after the write commits observes the new bytes.
//
// Failure semantics: the primary has ALREADY applied by the time replication
// runs, so a replica failure surfaces as the write's error while the write
// is PARTIALLY APPLIED — on the primary and any replicas reached before the
// failure. Replicas that missed the apply diverge until the object's next
// successful replicated mutation overwrites the gap, and fanned-out reads
// may observe either version in the interim. A caller that must know the
// outcome of a failed write reissues it (offset writes are idempotent) or
// reads through the primary, which is always authoritative; see DESIGN.md
// §15 failure modes.
func (s *FileServer) replicate(name string, kind int64, off int64, data []byte) error {
	fm := s.fleet.Load()
	if fm == nil {
		return nil
	}
	for _, addr := range fm.m.Owners(name) {
		if addr == fm.self {
			continue
		}
		c, err := s.peer(addr, name)
		if err != nil {
			return fmt.Errorf("replica %s unreachable: %w", addr, err)
		}
		if _, err := c.Apply(kind, off, data); err != nil {
			return fmt.Errorf("replica %s apply: %w", addr, err)
		}
		s.applyForwards.Add(1)
	}
	return nil
}

// injectedDelayAndFault applies configured latency and returns any one-shot
// injected fault.
func (s *FileServer) injectedDelayAndFault() error {
	s.mu.Lock()
	d := s.latency
	stall := s.stallNext
	s.stallNext = 0
	err := s.failNext
	s.failNext = nil
	s.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	if d > 0 {
		time.Sleep(d)
	}
	return err
}

// serveConn answers one connection's framed requests. Object operations are
// handled CONCURRENTLY — each runs on its own goroutine and replies carry the
// request's Seq, so a pipelining client (ipc.Mux) overlaps many round trips,
// including any injected latency, on one connection. Responses may complete
// out of order; Seq correlates them, and a group-committing BatchWriter
// coalesces replies finishing together into one vectored write on the
// connection instead of one syscall each. OpOpen and OpClose change
// connection state, so the intake loop drains every in-flight operation
// before handling those inline.
func (s *FileServer) serveConn(conn net.Conn) {
	defer conn.Close()
	// Drain-mode intake: a pipelining client's requests arrive in clumps,
	// and one read syscall pulls the whole clump into a pooled buffer the
	// frame reader then decodes without further syscalls — the receive-side
	// mirror of the reply path's group commit.
	src, dr := wire.WrapDrain(conn)
	defer dr.Release()
	r := wire.NewReader(src)
	w := wire.NewBatchWriter(conn, nil)

	respond := func(resp *wire.Response) {
		w.WriteResponse(resp) // a dead connection surfaces on the next read
	}

	// sess is the connection's admitted tenant session (nil without a
	// registry, or before OpOpen). When the connection ends its wire-level
	// amortization counters fold into the daemon-wide aggregate.
	var sess *daemon.Session
	defer func() {
		sess.Close()
		if s.reg != nil {
			s.reg.AddBatchStats(w.Stats())
			s.reg.AddDrainStats(dr.Stats())
		}
	}()

	// The connection binds one backend object at OpOpen. Backends hand out
	// handles onto shared state (mem) or shared files (nativefs), so
	// replacements (Put) and other sessions' writes stay visible through a
	// held handle. obj/opened/boundName are written only by the intake loop,
	// behind an inflight.Wait() barrier, so workers read them race-free.
	var obj backend.Object
	var boundName string
	opened := false
	defer func() {
		s.leases.dropConn(conn) // a closed connection's lease lapses with it
		if obj != nil {
			obj.Close()
		}
	}()

	handle := func(req *wire.Request) {
		resp := wire.Response{Seq: req.Seq, Status: wire.StatusOK}
		release := func() {}
		// Shutdown and admission checks come first: a refused operation is
		// answered immediately with a typed status — it never queues.
		if s.draining.Load() {
			resp.Status, resp.Msg = wire.FromError(wire.ErrShuttingDown)
			respond(&resp)
			return
		}
		var done daemon.DoneFunc
		if sess != nil {
			var resident int64
			switch req.Op {
			case wire.OpRead:
				resident = req.N // the response buffer the read reserves
			case wire.OpWrite, wire.OpApply:
				resident = int64(len(req.Data))
			}
			var aerr error
			done, aerr = sess.Begin(req.Op, resident)
			if aerr != nil {
				resp.Status, resp.Msg = wire.FromError(aerr)
				respond(&resp)
				return
			}
		}
		settle := func() {
			if done != nil {
				var opErr error
				if resp.Status != wire.StatusOK && resp.Status != wire.StatusEOF {
					opErr = wire.ToError(req.Op, resp.Status, resp.Msg)
				}
				done(opErr, resp.N)
			}
		}
		if ierr := s.injectedDelayAndFault(); ierr != nil {
			resp.Status, resp.Msg = wire.FromError(ierr)
			if resp.Status == wire.StatusOK {
				resp.Status = wire.StatusError
			}
			settle()
			respond(&resp)
			return
		}
		switch req.Op {
		case wire.OpRead:
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			n := int(req.N)
			if n < 0 || n > wire.MaxPayload {
				resp.Status, resp.Msg = wire.StatusError, "bad read size"
				break
			}
			// Pooled response buffer, recycled once the frame has shipped:
			// concurrent reads cost no per-op allocation.
			buf, rel := wire.GetBuf(n)
			release = rel
			rn, rerr := obj.ReadAt(buf, req.Off)
			resp.N = int64(rn)
			resp.Data = buf[:rn]
			if rerr != nil && !(errors.Is(rerr, io.EOF) && rn > 0) {
				resp.Status, resp.Msg = wire.FromError(rerr)
			}

		case wire.OpWrite:
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			if msg := s.notPrimary(boundName); msg != "" {
				resp.Status, resp.Msg = wire.StatusError, msg
				break
			}
			// Revoke every read lease before the write applies — holders
			// invalidate their caches and ack — then apply locally, push the
			// mutation to each replica, and only then close the round, so a
			// lease granted after this write always observes its bytes.
			endRound := s.leases.beginWrite(boundName)
			wn, werr := obj.WriteAt(req.Data, req.Off)
			resp.N = int64(wn)
			if werr == nil && wn > 0 {
				werr = s.replicate(boundName, wire.ApplyWrite, req.Off, req.Data[:wn])
			}
			if werr != nil {
				resp.Status, resp.Msg = wire.FromError(werr)
				if resp.Status == wire.StatusOK {
					resp.Status = wire.StatusError
				}
			}
			endRound()

		case wire.OpLease:
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			// Grant runs on a worker so the intake loop stays free to read
			// this connection's OpLeaseAck while the grant waits out an
			// in-progress write round. The push closure captures the bound
			// name by value: it outlives this request and is invoked from
			// other connections' write rounds; BatchWriter is safe for that.
			name := boundName
			epoch := s.leases.grant(conn, name,
				func(e uint64) {
					w.WriteResponse(&wire.Response{Seq: wire.PushSeq, Status: wire.StatusOK, N: int64(e), Data: []byte(name)})
				},
				func() { conn.Close() },
			)
			resp.N = int64(epoch)

		case wire.OpApply:
			// Replica apply, forwarded by the object's primary: run our own
			// revoke round (clients lease from the replica they read), apply,
			// never forward further — the primary drives the fan-out. Only a
			// replica of the object may honor it; everyone else refuses, so a
			// client cannot smuggle writes past the primary.
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			if msg := s.applyRefusal(boundName); msg != "" {
				resp.Status, resp.Msg = wire.StatusError, msg
				break
			}
			endRound := s.leases.beginWrite(boundName)
			switch req.N {
			case wire.ApplyWrite:
				wn, werr := obj.WriteAt(req.Data, req.Off)
				resp.N = int64(wn)
				if werr != nil {
					resp.Status, resp.Msg = wire.FromError(werr)
				}
			case wire.ApplyTruncate:
				if terr := obj.Truncate(req.Off); terr != nil {
					resp.Status, resp.Msg = wire.FromError(terr)
				}
			default:
				resp.Status, resp.Msg = wire.StatusError, "bad apply kind"
			}
			endRound()

		case wire.OpShardMap:
			// Served without an object binding so clients can bootstrap
			// routing from any shard address they know.
			fm := s.fleet.Load()
			if fm == nil {
				resp.Status = wire.StatusUnsupported
				break
			}
			resp.Data = fm.m.Encode()
			resp.N = int64(fm.m.Epoch())

		case wire.OpSize:
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			size, serr := obj.Size()
			resp.N = size
			if serr != nil {
				resp.Status, resp.Msg = wire.FromError(serr)
			}

		case wire.OpTruncate:
			if !opened {
				resp.Status, resp.Msg = wire.StatusError, "no object opened"
				break
			}
			if msg := s.notPrimary(boundName); msg != "" {
				resp.Status, resp.Msg = wire.StatusError, msg
				break
			}
			endRound := s.leases.beginWrite(boundName)
			terr := obj.Truncate(req.Off)
			if terr == nil {
				terr = s.replicate(boundName, wire.ApplyTruncate, req.Off, nil)
			}
			if terr != nil {
				resp.Status, resp.Msg = wire.FromError(terr)
				if resp.Status == wire.StatusOK {
					resp.Status = wire.StatusError
				}
			}
			endRound()

		case wire.OpSync:
			// Objects are in memory; sync is a no-op acknowledgement.

		default:
			resp.Status = wire.StatusUnsupported
		}
		// The admission charge is released before the reply ships, so a
		// client holding its reply never finds its own operation still
		// counted against the tenant's bound; recorded latency ends at the
		// answer. The drain count (inflightOps) still runs to the flush, and
		// the pooled read buffer must outlive it.
		settle()
		respond(&resp)
		release()
	}

	var inflight sync.WaitGroup
	defer inflight.Wait()
	for {
		req, payloadLen, err := r.ReadRequestHeader()
		if err != nil {
			return // connection gone or garbage; nothing to answer
		}

		switch req.Op {
		case wire.OpOpen:
			name := make([]byte, payloadLen)
			if err := r.ReadPayload(name); err != nil {
				return
			}
			inflight.Wait() // settle workers before changing connection state
			s.inflightOps.Add(1)
			resp := wire.Response{Seq: req.Seq, Status: wire.StatusOK}
			if s.draining.Load() {
				resp.Status, resp.Msg = wire.FromError(wire.ErrShuttingDown)
				respond(&resp)
				s.inflightOps.Add(-1)
				continue
			}
			// Admission precedes backend work: a tenant at its session cap
			// is refused with a typed status before anything opens.
			// Rebinding re-admits under the new name's tenant.
			var (
				newSess *daemon.Session
				done    daemon.DoneFunc
			)
			if s.reg != nil {
				var aerr error
				newSess, aerr = s.reg.Admit(daemon.TenantOf(string(name)))
				if aerr == nil {
					done, aerr = newSess.Begin(wire.OpOpen, 0)
				}
				if aerr != nil {
					newSess.Close()
					resp.Status, resp.Msg = wire.FromError(aerr)
					respond(&resp)
					s.inflightOps.Add(-1)
					continue
				}
			}
			settleOpen := func() {
				if done != nil {
					var opErr error
					if resp.Status != wire.StatusOK {
						opErr = wire.ToError(wire.OpOpen, resp.Status, resp.Msg)
					}
					done(opErr, 0)
				}
			}
			if ierr := s.injectedDelayAndFault(); ierr != nil {
				resp.Status, resp.Msg = wire.FromError(ierr)
				if resp.Status == wire.StatusOK {
					resp.Status = wire.StatusError
				}
				settleOpen()
				respond(&resp)
				newSess.Close()
				s.inflightOps.Add(-1)
				continue
			}
			// Rebinding a connection closes the previous object first and
			// releases its lease — the new binding leases afresh.
			if obj != nil {
				s.leases.dropConn(conn)
				obj.Close()
				obj, opened, boundName = nil, false, ""
			}
			o, oerr := s.store.Open(string(name))
			if oerr != nil {
				resp.Status, resp.Msg = wire.FromError(oerr)
				if resp.Status == wire.StatusOK {
					resp.Status = wire.StatusError
				}
				settleOpen()
				respond(&resp)
				newSess.Close()
				s.inflightOps.Add(-1)
				continue
			}
			obj, opened, boundName = o, true, string(name)
			if s.reg != nil {
				sess.Close() // release the previous binding's slot on rebind
				sess = newSess
			}
			settleOpen()
			respond(&resp)
			s.inflightOps.Add(-1)

		case wire.OpLeaseAck:
			// A revoke acknowledgement, handled inline so it is never queued
			// behind this connection's own in-flight operations — the write
			// round it unblocks may be what those operations are waiting on.
			// Pure notification: the client Posts it without a waiter, so no
			// response is sent.
			if err := r.DiscardPayload(); err != nil {
				return
			}
			s.leases.ack(conn, uint64(req.N))

		case wire.OpClose:
			if err := r.DiscardPayload(); err != nil {
				return
			}
			inflight.Wait() // every outstanding reply precedes the goodbye
			s.inflightOps.Add(1)
			if obj != nil {
				obj.Close()
				obj, opened = nil, false
			}
			sess.Close() // free the tenant's session slot promptly
			respond(&wire.Response{Seq: req.Seq, Status: wire.StatusOK})
			s.inflightOps.Add(-1)
			return

		default:
			// A queued request's payload lands straight in a pooled buffer
			// the worker releases after replying — no intake-side copy.
			qreq := req
			release := func() {}
			if payloadLen > 0 {
				buf, rel := wire.GetBuf(payloadLen)
				if err := r.ReadPayload(buf); err != nil {
					rel()
					return
				}
				qreq.Data, release = buf, rel
			}
			inflight.Add(1)
			s.inflightOps.Add(1)
			go func() {
				defer inflight.Done()
				defer s.inflightOps.Add(-1)
				handle(&qreq)
				release()
			}()
		}
	}
}
