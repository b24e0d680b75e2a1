package fleet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/remote"
	"repro/internal/wire"
)

// Options tunes a fleet client.
type Options struct {
	// Dial configures every per-shard remote.Client.
	Dial remote.DialOptions
	// CacheBlocks enables lease-protected client caching: each object gets a
	// cache.BlockCache of this many blocks whose entries are tagged with the
	// object's lease epoch, so cached reads cost no network round trip and a
	// conflicting write anywhere in the fleet invalidates them (via the
	// lease-revoke push) before it commits. Zero disables caching.
	CacheBlocks int
	// CacheBlockSize is the cache's block size (default 4096).
	CacheBlockSize int
}

const defaultCacheBlockSize = 4096

// Fleet is a client-side handle on a sharded FileServer fleet: a Backend
// whose objects are routed by a shard Map. Each object dials its owners
// lazily and keeps those connections pooled for the object's lifetime —
// reads on hot files fan out across replicas by power-of-two-choices on the
// clients' in-flight gauges, writes pin to the primary (which replicates
// synchronously server-side), and failover retires a shard's connection and
// carries on with the remaining replicas.
type Fleet struct {
	m    *Map
	opts Options
}

var _ backend.Backend = (*Fleet)(nil)

// New returns a fleet client over m.
func New(m *Map, opts Options) *Fleet {
	if opts.CacheBlockSize <= 0 {
		opts.CacheBlockSize = defaultCacheBlockSize
	}
	return &Fleet{m: m, opts: opts}
}

// Fetch bootstraps routing by retrieving the shard map from the first
// reachable of addrs — any shard serves the authoritative map.
func Fetch(addrs []string, d remote.DialOptions) (*Map, error) {
	var firstErr error
	for _, a := range addrs {
		data, _, err := remote.FetchShardMap(a, d)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return DecodeMap(data)
	}
	return nil, fmt.Errorf("fleet: no shard served a map: %w", firstErr)
}

// Map returns the shard map routing this fleet.
func (f *Fleet) Map() *Map { return f.m }

// Kind implements backend.Backend.
func (f *Fleet) Kind() string { return "fleet" }

// Caps implements backend.Backend.
func (f *Fleet) Caps() backend.Caps { return backend.CapWrite }

// Close implements backend.Backend; connections belong to the objects.
func (f *Fleet) Close() error { return nil }

// Open implements backend.Backend, returning a routed (and, when configured,
// lease-cached) object.
func (f *Fleet) Open(name string) (backend.Object, error) {
	owners := f.m.Owners(name)
	o := &Object{
		f:          f,
		name:       name,
		owners:     owners,
		ledIdx:     -1,
		epochOwner: -1,
		acqIdx:     -1,
		clients:    make([]*remote.Client, len(owners)),
	}
	if f.opts.CacheBlocks > 0 {
		c, err := cache.NewBlockCache(&leaseRouter{o: o}, f.opts.CacheBlockSize, f.opts.CacheBlocks)
		if err != nil {
			return nil, err
		}
		o.cache = c
	}
	return o, nil
}

// Object is one fleet-routed object, a backend.Object: reads fan out over
// the object's owners, writes go to the primary. With caching enabled, reads
// are served from an epoch-tagged block cache kept coherent by the lease
// protocol.
type Object struct {
	f      *Fleet
	name   string
	owners []string // primary first

	cache *cache.BlockCache // nil when caching is off

	mu      sync.Mutex
	clients []*remote.Client // lazily dialed, parallel to owners
	closed  bool

	// Lease state, meaningful only with caching. A lease is live while it
	// has not been revoked AND the session it was granted on survives: the
	// grant is connection-scoped on the server, so a reconnect (leaseSession
	// no longer matching the client's Reconnects count) means the server has
	// already forgotten us and the cache must not be trusted until a fresh
	// lease re-tags it.
	leased       bool
	ledIdx       int // owner index the lease was granted by
	leaseSession uint64

	// Epoch REGIME of the cache's tags. Lease epochs are per-server counters:
	// a different replica — or the same server after a restart — numbers them
	// independently, so epoch values are only comparable while both the owner
	// index and the session they arrived on are unchanged. A grant from any
	// other (owner, session) pair rebases the cache (ResetEpoch) instead of
	// advancing it monotonically; without the rebase, failing over from a
	// high-epoch replica to a low-epoch one would make every subsequent grant
	// and revoke a no-op on the cache and committed writes would stop
	// invalidating cached blocks.
	epochOwner   int // owner index the cache's epochs come from; -1 = none yet
	epochSession uint64

	// Acquisition window (guarded by mu; serialized by acqMu). The server may
	// emit a revoke for a just-granted lease before the grant's reply is even
	// processed — frames are concurrent server-side and the granting RPC's
	// waiter races the push handler client-side. While a grant is in flight
	// the handler banks such revokes in pendingRevoke instead of dropping
	// them, and the acquirer folds the banked epoch in before publishing.
	acqIdx        int // owner index of the grant in flight; -1 = none
	acqSession    uint64
	pendingRevoke uint64

	// acqMu serializes lease acquisition so concurrent fills don't interleave
	// their acquisition windows. Lock order: acqMu before mu; the revoke
	// handler takes only mu.
	acqMu sync.Mutex

	failovers uint64 // reads re-routed to another replica after a transport error
}

var _ backend.Object = (*Object)(nil)

// client returns the pooled connection to owner i, dialing on first use (or
// after a failover retired the previous one).
func (o *Object) client(i int) (*remote.Client, error) {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil, backend.ErrObjectClosed
	}
	if c := o.clients[i]; c != nil {
		o.mu.Unlock()
		return c, nil
	}
	addr := o.owners[i]
	o.mu.Unlock()

	c, err := remote.DialWith(addr, o.name, o.f.opts.Dial)
	if err != nil {
		return nil, err
	}
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		c.Close()
		return nil, backend.ErrObjectClosed
	}
	if prev := o.clients[i]; prev != nil {
		o.mu.Unlock()
		c.Close()
		return prev, nil
	}
	o.clients[i] = c
	o.mu.Unlock()
	return c, nil
}

// dropClient retires owner i's connection after a transport failure; the
// next use redials, so a recovered shard rejoins the rotation.
func (o *Object) dropClient(i int, c *remote.Client) {
	o.mu.Lock()
	if o.clients[i] == c {
		o.clients[i] = nil
	} else {
		c = nil
	}
	if o.leased && o.ledIdx == i {
		o.leased = false // the lease lived on that connection
	}
	o.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// pick chooses the owner index to read from: power of two choices on the
// clients' in-flight gauges, with an undialed owner counting as idle — two
// random owners are sampled and the less loaded one wins, which keeps the
// fan-out balanced without any shared coordination.
func (o *Object) pick() int {
	n := len(o.owners)
	if n == 1 {
		return 0
	}
	a := rand.Intn(n)
	b := rand.Intn(n - 1)
	if b >= a {
		b++
	}
	o.mu.Lock()
	la, lb := int64(0), int64(0)
	if c := o.clients[a]; c != nil {
		la = c.InFlight()
	}
	if c := o.clients[b]; c != nil {
		lb = c.InFlight()
	}
	o.mu.Unlock()
	if lb < la {
		return b
	}
	return a
}

// shouldFailover reports whether err warrants trying another replica: only
// transport-level failures do. Application answers (EOF, not-found, remote
// errors) are deterministic and replica-independent, and typed admission
// refusals are policy — failing over would route around admission control.
func shouldFailover(err error) bool {
	if err == nil || remote.IsRefusal(err) {
		return false
	}
	// Plain io.EOF is the application's end-of-object answer; a transport EOF
	// (peer died mid-exchange) reaches us wrapped and must fail over.
	if err == io.EOF {
		return false
	}
	if errors.Is(err, wire.ErrUnsupported) ||
		errors.Is(err, wire.ErrClosed) || errors.Is(err, wire.ErrNotFound) ||
		errors.Is(err, wire.ErrBusy) {
		return false
	}
	var re *wire.RemoteError
	return !errors.As(err, &re)
}

// readDirect reads from one of the object's owners, failing over across
// replicas on transport errors. Reads are idempotent, so a partially
// transferred attempt is simply reissued in full elsewhere.
func (o *Object) readDirect(p []byte, off int64) (int, error) {
	start := o.pick()
	var lastErr error
	for i := 0; i < len(o.owners); i++ {
		idx := (start + i) % len(o.owners)
		c, err := o.client(idx)
		if err != nil {
			if !shouldFailover(err) && !errors.Is(err, backend.ErrObjectClosed) {
				return 0, err
			}
			if errors.Is(err, backend.ErrObjectClosed) && o.isClosed() {
				return 0, backend.ErrObjectClosed
			}
			lastErr = err
			continue
		}
		n, rerr := c.ReadAt(p, off)
		if rerr == nil || !shouldFailover(rerr) {
			if errors.Is(rerr, backend.ErrObjectClosed) && !o.isClosed() {
				// A concurrent failover closed this client under us, not the
				// object; try the next replica.
				lastErr = rerr
				continue
			}
			return n, rerr
		}
		o.dropClient(idx, c)
		o.mu.Lock()
		o.failovers++
		o.mu.Unlock()
		lastErr = rerr
	}
	return 0, fmt.Errorf("fleet: every owner of %q failed: %w", o.name, lastErr)
}

func (o *Object) isClosed() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.closed
}

// CacheStats reports the object's block-cache counters; ok is false when
// caching is off.
func (o *Object) CacheStats() (cache.Stats, bool) {
	if o.cache == nil {
		return cache.Stats{}, false
	}
	return o.cache.Stats(), true
}

// Failovers reports how many reads were re-routed to another replica.
func (o *Object) Failovers() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.failovers
}

// ReadAt implements backend.Object. Cached reads first verify the lease's
// revoke channel is still live — a hit must never outlive the lease that
// keeps it coherent.
func (o *Object) ReadAt(p []byte, off int64) (int, error) {
	if o.cache != nil {
		o.ensureLive()
		return o.cache.ReadAt(p, off)
	}
	return o.readDirect(p, off)
}

// WriteAt implements backend.Object: writes pin to the primary, which revokes
// read leases, applies, and synchronously replicates before answering. No
// failover — a non-primary shard would refuse, and replaying a write that
// may have applied is never safe.
func (o *Object) WriteAt(p []byte, off int64) (int, error) {
	if o.cache != nil {
		return o.cache.WriteAt(p, off)
	}
	return o.writeDirect(p, off)
}

func (o *Object) writeDirect(p []byte, off int64) (int, error) {
	c, err := o.client(0)
	if err != nil {
		return 0, err
	}
	return c.WriteAt(p, off)
}

// Size implements backend.Object (idempotent; fails over like reads).
func (o *Object) Size() (int64, error) {
	if o.cache != nil {
		return o.cache.Size()
	}
	return o.sizeDirect()
}

func (o *Object) sizeDirect() (int64, error) {
	start := o.pick()
	var lastErr error
	for i := 0; i < len(o.owners); i++ {
		idx := (start + i) % len(o.owners)
		c, err := o.client(idx)
		if err != nil {
			lastErr = err
			continue
		}
		n, serr := c.Size()
		if serr == nil || !shouldFailover(serr) {
			if errors.Is(serr, backend.ErrObjectClosed) && !o.isClosed() {
				lastErr = serr
				continue
			}
			return n, serr
		}
		o.dropClient(idx, c)
		lastErr = serr
	}
	return 0, fmt.Errorf("fleet: every owner of %q failed: %w", o.name, lastErr)
}

// Truncate implements backend.Object; primary-pinned like writes.
func (o *Object) Truncate(n int64) error {
	if o.cache != nil {
		return o.cache.Truncate(n)
	}
	return o.truncateDirect(n)
}

func (o *Object) truncateDirect(n int64) error {
	c, err := o.client(0)
	if err != nil {
		return err
	}
	return c.Truncate(n)
}

// Close implements backend.Object, releasing every pooled connection.
func (o *Object) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	o.leased = false
	clients := o.clients
	o.clients = make([]*remote.Client, len(o.owners))
	o.mu.Unlock()
	for _, c := range clients {
		if c != nil {
			c.Close()
		}
	}
	return nil
}

// ensureLive guards the cached-read hit path. Cache hits cost no network
// traffic, so without this check a fully cached working set would keep
// being served after the leased connection died: the server forgets a dead
// connection's lease and commits writes without revoking this client, yet
// every hit would still validate. Before any cached byte is trusted the
// lease's session must be the live one; when it is not, re-leasing either
// rebases the cache onto the new grant's epoch regime (discarding anything
// a missed write may have invalidated) or, if no owner will grant a lease,
// discards everything — with no revoke channel nothing cached may be served.
func (o *Object) ensureLive() {
	o.mu.Lock()
	if o.leased {
		if c := o.clients[o.ledIdx]; c != nil && c.SessionLive(o.leaseSession) {
			o.mu.Unlock()
			return
		}
		o.leased = false
	}
	o.mu.Unlock()
	if _, _, err := o.ensureLease(); err != nil {
		o.cache.InvalidateAll() // reads now refill — and surface err — instead of hitting
	}
}

// ensureLease returns a client holding a live lease on the object, acquiring
// or re-acquiring one as needed. The revoke handler is installed before the
// grant so no revoke can slip through unobserved, and it marks the lease
// dead BEFORE bumping the cache epoch — a fill racing the revoke therefore
// either tags with the old epoch (and is discarded) or re-leases first (and
// blocks until the conflicting write has fully applied).
func (o *Object) ensureLease() (*remote.Client, int, error) {
	o.acqMu.Lock()
	defer o.acqMu.Unlock()

	o.mu.Lock()
	if o.leased {
		c := o.clients[o.ledIdx]
		if c != nil && c.SessionLive(o.leaseSession) {
			idx := o.ledIdx
			o.mu.Unlock()
			return c, idx, nil
		}
		o.leased = false
	}
	prefer := o.ledIdx
	o.mu.Unlock()
	if prefer < 0 {
		prefer = o.pick()
	}
	defer func() {
		o.mu.Lock()
		o.acqIdx = -1
		o.mu.Unlock()
	}()

	var lastErr error
	for i := 0; i < len(o.owners); i++ {
		idx := (prefer + i) % len(o.owners)
		c, err := o.client(idx)
		if err != nil {
			lastErr = err
			continue
		}
		leasedIdx := idx
		c.SetRevokeHandler(func(_ string, epoch, sid uint64) {
			o.mu.Lock()
			defer o.mu.Unlock()
			switch {
			case o.leased && o.ledIdx == leasedIdx && o.leaseSession == sid:
				// The live lease: one monotonic epoch bump invalidates every
				// earlier-tagged block in O(1).
				o.leased = false
				o.cache.SetEpoch(epoch)
			case o.acqIdx == leasedIdx && o.acqSession == sid:
				// The revoke raced a grant in flight on this session — the
				// server may push before the grant's reply is processed. Bank
				// it; the acquirer folds it in before publishing the lease.
				if epoch > o.pendingRevoke {
					o.pendingRevoke = epoch
				}
			}
			// Anything else is a straggler from a dead regime: every block
			// cached under it was discarded when the regime turned over.
		})
		// The lease must be paired with the session that granted it: if the
		// session turned over during the exchange (idempotent replay), the
		// grant we hold may belong to a connection the server has already
		// forgotten, so lease again on the settled session.
		granted := false
		for tries := 0; tries < 3; tries++ {
			before := c.Reconnects()
			o.mu.Lock()
			o.acqIdx, o.acqSession, o.pendingRevoke = idx, before, 0
			o.mu.Unlock()
			e, lerr := c.Lease()
			if lerr != nil {
				if !shouldFailover(lerr) {
					return nil, 0, lerr
				}
				lastErr = lerr
				break
			}
			if c.Reconnects() != before {
				continue
			}
			o.mu.Lock()
			// Epochs are only comparable with the cache's tags while they
			// come from the same owner on the same session; any other grant
			// rebases the cache wholesale.
			sameRegime := o.epochOwner == idx && o.epochSession == before
			pending := o.pendingRevoke
			o.acqIdx = -1
			eff := e
			if pending > eff {
				eff = pending
			}
			o.ledIdx, o.leaseSession = idx, before
			o.epochOwner, o.epochSession = idx, before
			o.leased = pending <= e // a banked revoke above the grant means it is already dead
			live := o.leased
			if sameRegime {
				o.cache.SetEpoch(eff)
			} else {
				o.cache.ResetEpoch(eff)
			}
			o.mu.Unlock()
			if live {
				return c, idx, nil
			}
			granted = true // regime published; retry waits out the conflicting write's round
		}
		if !granted {
			o.dropClient(idx, c)
			if lastErr == nil {
				lastErr = fmt.Errorf("fleet: lease on %q kept losing its session", o.name)
			}
			continue
		}
		// Granted but revoked mid-grant every try: the connection is healthy,
		// so keep it and try another owner.
		if lastErr == nil {
			lastErr = fmt.Errorf("fleet: lease on %q kept being revoked mid-grant", o.name)
		}
	}
	return nil, 0, fmt.Errorf("fleet: no owner of %q granted a lease: %w", o.name, lastErr)
}

// leaseRouter is the cache's backing store: fills read from the replica the
// object holds a lease on (so every cached byte is covered by a revoke
// channel), writes and truncates route to the primary.
type leaseRouter struct {
	o *Object
}

var _ cache.Object = (*leaseRouter)(nil)

func (r *leaseRouter) ReadAt(p []byte, off int64) (int, error) {
	var lastErr error
	for i := 0; i <= len(r.o.owners); i++ {
		c, idx, err := r.o.ensureLease()
		if err != nil {
			return 0, err
		}
		n, rerr := c.ReadAt(p, off)
		if rerr == nil || !shouldFailover(rerr) {
			if errors.Is(rerr, backend.ErrObjectClosed) && !r.o.isClosed() {
				lastErr = rerr
				r.o.dropClient(idx, c)
				continue
			}
			return n, rerr
		}
		r.o.dropClient(idx, c) // also drops the lease that lived on it
		r.o.mu.Lock()
		r.o.failovers++
		r.o.mu.Unlock()
		lastErr = rerr
	}
	return 0, fmt.Errorf("fleet: leased reads of %q kept failing: %w", r.o.name, lastErr)
}

func (r *leaseRouter) WriteAt(p []byte, off int64) (int, error) { return r.o.writeDirect(p, off) }
func (r *leaseRouter) Size() (int64, error)                     { return r.o.sizeDirect() }
func (r *leaseRouter) Truncate(n int64) error                   { return r.o.truncateDirect(n) }

// Close implements cache.Object. The router owns nothing: the connections it
// reads over belong to the Object, whose Close releases them.
func (r *leaseRouter) Close() error { return nil }

func init() {
	backend.Register("fleet", func(opts map[string]string, config string) (backend.Backend, error) {
		if config == "" {
			return nil, fmt.Errorf("%w: fleet wants shard addresses (fleet:host:port,host:port,...)", backend.ErrBadSpec)
		}
		var addrs []string
		for _, a := range strings.Split(config, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		var o Options
		replicas := 1
		var hot []string
		for k, v := range opts {
			switch k {
			case "cache":
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("%w: fleet cache=%q wants a block count", backend.ErrBadSpec, v)
				}
				o.CacheBlocks = n
			case "bsize":
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("%w: fleet bsize=%q wants a positive block size", backend.ErrBadSpec, v)
				}
				o.CacheBlockSize = n
			case "replicas":
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("%w: fleet replicas=%q wants a positive count", backend.ErrBadSpec, v)
				}
				replicas = n
			case "hot":
				// Globs are ';'-separated: ',' delimits spec options.
				for _, g := range strings.Split(v, ";") {
					if g != "" {
						hot = append(hot, g)
					}
				}
			default:
				return nil, fmt.Errorf("%w: fleet does not understand option %q", backend.ErrBadSpec, k)
			}
		}
		// The shards' own map is authoritative; a locally built one (epoch 0)
		// covers fleets of plain FileServers that were never SetFleet'd.
		m, err := Fetch(addrs, o.Dial)
		if err != nil {
			m, err = NewMap(0, addrs, replicas, hot)
			if err != nil {
				return nil, err
			}
		}
		return New(m, o), nil
	})
}
