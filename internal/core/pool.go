package core

import (
	"fmt"
	"os/exec"
	"sync"
	"time"

	"repro/internal/ipc"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The warm sentinel pool removes fork+exec from the procctl open path of
// pipe sessions. A manifest opting in (param "pool"=N) keeps up to N idle
// pre-spawned sentinels; Open adopts one and rebinds it with a single OpOpen
// handshake over the already-connected control pipes — a pipe round trip
// instead of a process launch. The pool replenishes in the background after
// each take, so steady open/close churn keeps finding warm children.

// pooledSentinel is one idle pre-spawned procctl child: started, pipes
// connected, program NOT yet opened — it is blocked reading the control
// pipe for the OpOpen handshake (or EOF).
type pooledSentinel struct {
	cmd *exec.Cmd
	cf  *ipc.ChannelFiles
	mon *childMonitor
}

// shutdown retires an idle sentinel: closing the parent pipe ends delivers
// EOF, on which a pooled child exits cleanly.
func (ps *pooledSentinel) shutdown() {
	ps.cf.Close()
	ps.mon.reap()
}

// awaitReady blocks until the child announces (Seq-0 StatusOK beacon) that it
// has booted and parked on the control channel. Parking only ready sentinels
// keeps adoption latency down to a pipe round trip — without this, an
// adoption right after a spawn would absorb the tail of exec+runtime init.
// A child that cannot produce the beacon within the handshake timeout is
// reported as unusable.
func (ps *pooledSentinel) awaitReady() error {
	deadline := ps.cf.FromChild.SetReadDeadline(time.Now().Add(handshakeTimeout)) == nil
	resp, err := wire.NewReader(ps.cf.FromChild).ReadResponse()
	if deadline {
		ps.cf.FromChild.SetReadDeadline(time.Time{})
	}
	if err != nil {
		return fmt.Errorf("core: pool sentinel never became ready: %w", err)
	}
	if resp.Seq != 0 || resp.Status != wire.StatusOK {
		return fmt.Errorf("core: pool sentinel sent %v/%d instead of ready beacon", resp.Status, resp.Seq)
	}
	return nil
}

// sentinelPool holds idle warm sentinels keyed by manifest path.
type sentinelPool struct {
	mu       sync.Mutex
	idle     map[string][]*pooledSentinel
	spawning map[string]int // background spawns in flight per manifest
	draining bool
	wg       sync.WaitGroup // outstanding background spawns
}

// procPool is the process-wide warm pool. Sentinels are keyed by manifest
// path, so two opens of different active files never trade children.
var procPool = &sentinelPool{
	idle:     make(map[string][]*pooledSentinel),
	spawning: make(map[string]int),
}

// acquire pops an idle live sentinel for path, discarding any that died
// while parked. Returns nil when the pool has none.
func (p *sentinelPool) acquire(path string) *pooledSentinel {
	p.mu.Lock()
	defer p.mu.Unlock()
	q := p.idle[path]
	for len(q) > 0 {
		ps := q[len(q)-1]
		q = q[:len(q)-1]
		p.idle[path] = q
		if _, dead := ps.mon.exited(); dead {
			ps.cf.Close() // dead while parked; already reaped by monitor
			continue
		}
		return ps
	}
	return nil
}

// ensure tops the pool up toward want idle sentinels for path, spawning the
// shortfall in the background so the caller's open is never charged for it.
func (p *sentinelPool) ensure(path string, m vfs.Manifest, want int) {
	p.mu.Lock()
	need := 0
	if !p.draining {
		need = want - len(p.idle[path]) - p.spawning[path]
	}
	if need > 0 {
		p.spawning[path] += need
		p.wg.Add(need)
	}
	p.mu.Unlock()
	for i := 0; i < need; i++ {
		go p.spawnOne(path, m)
	}
}

// spawnOne starts one warm sentinel and parks it as idle (or shuts it down
// if the pool is draining, or abandons quietly on spawn failure — the next
// cold open will surface any persistent problem).
func (p *sentinelPool) spawnOne(path string, m vfs.Manifest) {
	defer p.wg.Done()
	ps, err := spawnPooled(path, m)
	p.mu.Lock()
	p.spawning[path]--
	if err != nil {
		p.mu.Unlock()
		return
	}
	if p.draining {
		p.mu.Unlock()
		ps.shutdown()
		return
	}
	p.park(path, ps)
	p.mu.Unlock()
}

// park registers ps as idle for path and arms its death hook to self-evict.
// Called with p.mu held.
func (p *sentinelPool) park(path string, ps *pooledSentinel) {
	p.idle[path] = append(p.idle[path], ps)
	ps.mon.setOnDeath(func(error) { p.evict(path, ps) })
}

// evict removes a parked sentinel that died idle. A no-op when the entry was
// already acquired (the adopter's death hook has taken over by then).
func (p *sentinelPool) evict(path string, ps *pooledSentinel) {
	p.mu.Lock()
	q := p.idle[path]
	for i, cand := range q {
		if cand == ps {
			p.idle[path] = append(q[:i], q[i+1:]...)
			p.mu.Unlock()
			ps.cf.Close()
			return
		}
	}
	p.mu.Unlock()
}

// idleCount reports how many warm sentinels are parked for path.
func (p *sentinelPool) idleCount(path string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[path])
}

// drain retires every idle sentinel and waits out in-flight background
// spawns (which self-retire). The pool is usable again afterwards.
func (p *sentinelPool) drain() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
	p.wg.Wait() // in-flight spawns observe draining and shut themselves down

	p.mu.Lock()
	all := p.idle
	p.idle = make(map[string][]*pooledSentinel)
	p.draining = false
	p.mu.Unlock()
	for _, q := range all {
		for _, ps := range q {
			ps.shutdown()
		}
	}
}

// spawnPooled starts one warm procctl sentinel for path and waits for its
// ready beacon: spawned with the pooled marker, the child loads the manifest,
// announces readiness, and parks on the control channel awaiting its OpOpen
// rebind.
func spawnPooled(path string, m vfs.Manifest) (*pooledSentinel, error) {
	cmd, cf, err := spawnSentinel(path, m, StrategyProcCtl, nil, envPooled+"=1")
	if err != nil {
		return nil, err
	}
	ps := &pooledSentinel{cmd: cmd, cf: cf}
	ps.mon = watchChild(cmd, nil)
	if err := ps.awaitReady(); err != nil {
		ps.cmd.Process.Kill()
		ps.shutdown()
		return nil, err
	}
	return ps, nil
}

// acquireWarmTransport tries to adopt a warm sentinel for manifestPath,
// returning (nil, false) when the pool is empty or the rebind handshake
// fails — the caller then cold-spawns as usual.
func acquireWarmTransport(manifestPath string, o sessionOptions) (*procCtlTransport, bool) {
	ps := procPool.acquire(manifestPath)
	if ps == nil {
		return nil, false
	}
	t := newMuxTransport(ipc.PipeConn{CF: ps.cf}, o)
	t.cmd, t.cf, t.mon = ps.cmd, ps.cf, ps.mon
	// Hand supervision from the pool to this transport. If the child died in
	// the instant between acquire and here, the hook fires immediately and
	// the handshake below fails fast instead of waiting out its timeout.
	ps.mon.setOnDeath(func(waitErr error) { t.fail(sentinelDeath(waitErr)) })
	// Rebind: one pipe round trip replaces fork+exec+program-open.
	if rtErr, openErr := t.handshake(); rtErr != nil || openErr != nil {
		// Sour entry: discard it and let the caller cold-spawn, which will
		// also surface any deterministic program-open error properly.
		t.closing.Store(true)
		t.mux.Close()
		t.conn.Close()
		t.cmd.Process.Kill()
		t.mon.reap()
		return nil, false
	}
	return t, true
}

// PrewarmSentinels synchronously fills the warm pool for the manifest at
// path up to its configured size (param "pool"), so subsequent Opens pay
// only the rebind handshake. It returns the number of idle sentinels parked.
// Manifests without a pool param are a no-op.
func PrewarmSentinels(path string) (int, error) {
	m, err := vfs.Load(path)
	if err != nil {
		return 0, fmt.Errorf("core: prewarm: %w", err)
	}
	o, err := parseSessionOptions(m)
	if err != nil {
		return 0, err
	}
	for procPool.idleCount(path) < o.pool {
		ps, err := spawnPooled(path, m)
		if err != nil {
			return procPool.idleCount(path), err
		}
		procPool.mu.Lock()
		procPool.park(path, ps)
		procPool.mu.Unlock()
	}
	return procPool.idleCount(path), nil
}

// DrainSentinelPool shuts down every idle warm sentinel. Benchmarks and
// tests call it to release pooled subprocesses deterministically; the pool
// re-warms on the next pooled Open.
func DrainSentinelPool() {
	procPool.drain()
}

// IdleSentinels reports how many warm sentinels are parked for the manifest
// at path — observability for churn benchmarks and tests.
func IdleSentinels(path string) int {
	return procPool.idleCount(path)
}
