// Package daemon is the multi-tenant session layer of the active-file
// daemon (afd). It multiplexes M client sessions over the N sentinels and
// backends a server composes, and makes the daemon safe to share:
//
//   - a session REGISTRY tracks every live session grouped by tenant, so
//     "who is using the daemon, and how hard" is a queryable fact rather
//     than a guess;
//   - ADMISSION CONTROL bounds each tenant's concurrent operations and
//     in-flight payload bytes. When a bound is hit the operation is
//     rejected immediately with a typed error (wire.ErrOverloaded /
//     wire.ErrQuotaExceeded) instead of queueing without limit — the
//     client learns it is the bottleneck while the daemon stays live for
//     everyone else;
//   - QUOTAS cap what a tenant may hold open (sessions) and keep resident
//     (bytes), so one tenant cannot starve the rest;
//   - graceful DRAIN quiesces the daemon for shutdown: new work is refused
//     with wire.ErrShuttingDown, in-flight operations finish under a
//     deadline, and only then do connections close — at frame boundaries,
//     not mid-reply.
//
// The registry also owns the daemon-wide observability surface: per-op
// latency histograms plus per-tenant activity counters (the server-side
// mirror of core.Handle.Stats), aggregated across tenants and exported as
// one JSON snapshot (see stats.go).
//
// Tenancy is named, not authenticated: a session's tenant is derived from
// the object name it opens (TenantOf), which is exactly as much isolation
// as a local daemon shared by cooperating applications needs — the same
// trust model as the file system itself.
package daemon

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// DefaultTenant is the tenant of sessions whose object names carry no
// tenant prefix.
const DefaultTenant = "default"

// TenantOf maps an opened object name to its tenant: the first
// path-separated segment when the name has one ("acme/logs/today" belongs
// to "acme"), DefaultTenant otherwise. Backends see the full name
// unchanged; the prefix is an accounting key, not a namespace rewrite.
func TenantOf(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 && i < len(name)-1 {
		return name[:i]
	}
	return DefaultTenant
}

// Quotas bounds one tenant's footprint. A zero field means unlimited, so
// the zero value admits everything — a Registry without quotas is pure
// accounting.
type Quotas struct {
	// MaxSessions caps a tenant's concurrently open sessions (handles).
	// Admission past the cap fails with wire.ErrQuotaExceeded.
	MaxSessions int
	// MaxInFlight caps a tenant's concurrently executing operations. An
	// operation past the cap is rejected with wire.ErrOverloaded — the
	// transient form: the same request can succeed as soon as one in
	// flight completes.
	MaxInFlight int
	// MaxBytes caps the payload bytes a tenant may have resident in the
	// daemon at once (request payloads plus reserved response buffers —
	// the accounting analog of a per-tenant cache budget). Exceeding it
	// rejects with wire.ErrQuotaExceeded.
	MaxBytes int64
}

// Registry is the daemon's session table: every live session, grouped by
// tenant, with admission control and activity accounting. All methods are
// safe for concurrent use; the hot path (Session.Begin / the done
// callback) is lock-free.
type Registry struct {
	quotas Quotas

	mu      sync.Mutex
	tenants map[string]*tenant
	shard   func() ShardStats // optional fleet-shard gauge provider

	draining atomic.Bool
	inflight atomic.Int64 // daemon-wide gauge; Drain waits on it
	sessions atomic.Int64 // daemon-wide gauge

	hist [opSlots]Histogram // per-op latency, daemon-wide

	// Wire-level amortization folded in from finished connections: how
	// many frames each vectored write carried (BatchWriter) and how many
	// bytes each receive wakeup pulled (DrainReader) — the server-side
	// aggregate of the per-handle BatchStats/DataPlaneStats counters.
	batchFlushes atomic.Uint64
	batchFrames  atomic.Uint64
	recvFills    atomic.Uint64
	recvBytes    atomic.Uint64

	rejectedShutdown atomic.Uint64
}

// opSlots sizes the per-op histogram array; wire ops are small contiguous
// constants (OpOpen=1 … OpApply=16).
const opSlots = 20

// NewRegistry returns a registry enforcing q.
func NewRegistry(q Quotas) *Registry {
	return &Registry{quotas: q, tenants: make(map[string]*tenant)}
}

// SetShardProvider installs f as the source of fleet-shard gauges included
// in Snapshot — identity in the shard map, lease-protocol counters,
// replication forwards. A daemon that is not a fleet shard leaves it unset.
func (r *Registry) SetShardProvider(f func() ShardStats) {
	r.mu.Lock()
	r.shard = f
	r.mu.Unlock()
}

// tenant is one tenant's accounting row. Gauges and counters are atomics:
// the operation path never takes the registry lock.
type tenant struct {
	name string

	sessions     atomic.Int64 // gauge
	peakSessions atomic.Int64
	inflight     atomic.Int64 // gauge
	bytes        atomic.Int64 // gauge: resident payload bytes

	ops          atomic.Uint64
	errors       atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64

	rejOverload atomic.Uint64
	rejQuota    atomic.Uint64
	rejShutdown atomic.Uint64
}

// lookup returns the tenant row, creating it on first contact.
func (r *Registry) lookup(name string) *tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := r.tenants[name]
	if t == nil {
		t = &tenant{name: name}
		r.tenants[name] = t
	}
	return t
}

// Session is one admitted client session (one connection bound to one
// object). It is the capability operations are accounted against; Close
// releases the tenant's session slot.
type Session struct {
	reg    *Registry
	tenant *tenant
	closed atomic.Bool
}

// Admit registers a new session for tenantName, enforcing the session
// quota. It fails with wire.ErrShuttingDown while draining and
// wire.ErrQuotaExceeded when the tenant is at its session cap.
func (r *Registry) Admit(tenantName string) (*Session, error) {
	t := r.lookup(tenantName)
	if r.draining.Load() {
		t.rejShutdown.Add(1)
		r.rejectedShutdown.Add(1)
		return nil, wire.ErrShuttingDown
	}
	for {
		cur := t.sessions.Load()
		if r.quotas.MaxSessions > 0 && cur >= int64(r.quotas.MaxSessions) {
			t.rejQuota.Add(1)
			return nil, wire.ErrQuotaExceeded
		}
		if t.sessions.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	r.sessions.Add(1)
	for {
		peak := t.peakSessions.Load()
		now := t.sessions.Load()
		if now <= peak || t.peakSessions.CompareAndSwap(peak, now) {
			break
		}
	}
	return &Session{reg: r, tenant: t}, nil
}

// Close releases the session's slot. It is idempotent.
func (s *Session) Close() {
	if s == nil || !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.tenant.sessions.Add(-1)
	s.reg.sessions.Add(-1)
}

// DoneFunc settles one admitted operation: err is the operation's outcome
// (nil on success), moved is how many payload bytes it actually
// transferred. It must be called exactly once per successful Begin.
type DoneFunc func(err error, moved int64)

// Begin admits one operation against the session: op names it for the
// latency histogram, bytes is the payload it will hold resident while in
// flight (request payload, or the response buffer a read reserves).
//
// Begin never blocks. Past the tenant's in-flight bound it fails with
// wire.ErrOverloaded; past the byte budget, wire.ErrQuotaExceeded; while
// draining, wire.ErrShuttingDown. On success the returned DoneFunc must be
// called when the operation completes — it records latency and bytes and
// releases the admission.
func (s *Session) Begin(op wire.Op, bytes int64) (DoneFunc, error) {
	t := s.tenant
	r := s.reg
	if r.draining.Load() {
		t.rejShutdown.Add(1)
		r.rejectedShutdown.Add(1)
		return nil, wire.ErrShuttingDown
	}
	if max := int64(r.quotas.MaxInFlight); max > 0 {
		if t.inflight.Add(1) > max {
			t.inflight.Add(-1)
			t.rejOverload.Add(1)
			return nil, wire.ErrOverloaded
		}
	} else {
		t.inflight.Add(1)
	}
	if max := r.quotas.MaxBytes; max > 0 && bytes > 0 {
		if t.bytes.Add(bytes) > max {
			t.bytes.Add(-bytes)
			t.inflight.Add(-1)
			t.rejQuota.Add(1)
			return nil, wire.ErrQuotaExceeded
		}
	} else {
		t.bytes.Add(bytes)
	}
	r.inflight.Add(1)
	start := time.Now()
	return func(err error, moved int64) {
		if slot := int(op); slot > 0 && slot < opSlots {
			r.hist[slot].Observe(time.Since(start))
		}
		t.ops.Add(1)
		if err != nil {
			t.errors.Add(1)
		} else if moved > 0 {
			switch op {
			case wire.OpWrite:
				t.bytesWritten.Add(uint64(moved))
			default:
				t.bytesRead.Add(uint64(moved))
			}
		}
		t.bytes.Add(-bytes)
		t.inflight.Add(-1)
		r.inflight.Add(-1)
	}, nil
}

// AddBatchStats folds one finished connection's reply-path flush
// amortization into the daemon-wide totals.
func (r *Registry) AddBatchStats(bs wire.BatchStats) {
	r.batchFlushes.Add(bs.Flushes)
	r.batchFrames.Add(bs.Frames)
}

// AddDrainStats folds one finished connection's receive-path wakeup
// amortization into the daemon-wide totals.
func (r *Registry) AddDrainStats(ds wire.DrainStats) {
	r.recvFills.Add(ds.Fills)
	r.recvBytes.Add(ds.Bytes)
}

// Draining reports whether the registry has stopped admitting work.
func (r *Registry) Draining() bool { return r.draining.Load() }

// InFlight reports the daemon-wide count of operations currently
// executing.
func (r *Registry) InFlight() int64 { return r.inflight.Load() }

// Drain stops admitting new sessions and operations, then waits up to
// timeout for every in-flight operation to settle. It reports whether the
// daemon quiesced cleanly; false means the deadline expired with work
// still running (the caller may then tear connections down forcibly).
// Drain is idempotent — concurrent callers all wait.
func (r *Registry) Drain(timeout time.Duration) bool {
	r.draining.Store(true)
	deadline := time.Now().Add(timeout)
	for r.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return r.inflight.Load() == 0
		}
		time.Sleep(500 * time.Microsecond)
	}
	return true
}
