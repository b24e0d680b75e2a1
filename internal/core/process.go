package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
	"repro/internal/shm"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Environment variables carrying the session description to a sentinel
// subprocess (the analogue of the stub "passing the created process the name
// of the data part", §4.1).
const (
	envChildMarker = "AF_SENTINEL_CHILD"
	envManifest    = "AF_MANIFEST"
	envStrategy    = "AF_STRATEGY"
	// envPooled marks a pre-spawned warm-pool sentinel: the child defers
	// opening its program until an OpOpen handshake arrives on the control
	// channel (or exits cleanly on EOF if the pool drains it unused).
	envPooled = "AF_SENTINEL_POOLED"
)

// childWaitTimeout bounds how long Close waits for a sentinel subprocess to
// exit before killing it.
const childWaitTimeout = 5 * time.Second

// ErrSentinelDied reports that the sentinel subprocess backing a session
// exited while the session was still open — the EIO-class verdict for a
// crashed or killed sentinel, surfaced promptly instead of as a hang or a
// counterfeit clean EOF.
var ErrSentinelDied = errors.New("core: sentinel process died")

// spawnSentinel starts the sentinel subprocess for manifestPath with the
// pipe layout of the given strategy, plus — when the manifest selects the
// shm transport and this platform supports it — a shared-memory segment
// whose files the child inherits after the pipes. The returned segment is
// nil whenever the session runs on pipes (by default, by platform fallback,
// or because segment allocation failed); the child learns the outcome via
// the envShm marker, never by guessing from the manifest. The returned
// fallback string is non-empty exactly when shm was requested but the
// session was demoted to pipes, and says why. When the manifest names an
// external executable it is run directly; otherwise the current binary is
// re-executed in child mode (the offline substitute for a separate sentinel
// image). extraEnv entries ("KEY=VALUE") are appended to the child
// environment.
func spawnSentinel(manifestPath string, m vfs.Manifest, strategy Strategy, extraEnv ...string) (*exec.Cmd, *ipc.ChannelFiles, *shm.Segment, string, error) {
	seg, fallback, err := newSessionSegment(m, strategy)
	if err != nil {
		return nil, nil, nil, "", err
	}
	cf, err := ipc.NewChannelFiles(strategy == StrategyProcCtl)
	if err != nil {
		if seg != nil {
			seg.Close()
		}
		return nil, nil, nil, "", err
	}
	fail := func(err error) (*exec.Cmd, *ipc.ChannelFiles, *shm.Segment, string, error) {
		cf.Close()
		if seg != nil {
			seg.Close()
		}
		return nil, nil, nil, "", err
	}

	var cmd *exec.Cmd
	if m.Program.Exec != "" {
		cmd = exec.Command(m.Program.Exec, m.Program.Args...)
	} else {
		self, err := os.Executable()
		if err != nil {
			return fail(fmt.Errorf("locate own executable: %w", err))
		}
		cmd = exec.Command(self)
	}
	cmd.Env = append(os.Environ(),
		envChildMarker+"=1",
		envManifest+"="+manifestPath,
		envStrategy+"="+strategy.String(),
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.ExtraFiles = cf.ChildFiles()
	if seg != nil {
		cmd.Env = append(cmd.Env, envShm+"=1")
		// Segment files follow the pipes; unlike pipe ends they are shared,
		// not paired, so the parent keeps every one of them open.
		cmd.ExtraFiles = append(cmd.ExtraFiles, seg.ChildFiles()...)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return fail(fmt.Errorf("start sentinel process: %w", err))
	}
	cf.CloseChildEnds()
	return cmd, cf, seg, fallback, nil
}

// childMonitor owns the one allowed cmd.Wait call for a sentinel subprocess
// and publishes its outcome: transports learn about sentinel death the
// moment it happens (the onDeath hook) instead of discovering it as a
// mid-operation hang, and Close reaps through the same channel.
type childMonitor struct {
	cmd  *exec.Cmd
	done chan struct{}
	err  error // cmd.Wait result; valid once exited is true
	dead atomic.Bool

	hookMu sync.Mutex
	hook   func(error) // current death callback; swappable via setOnDeath
	fired  bool        // the callback slot has been consumed
}

// watchChild begins supervising cmd. onDeath (optional) runs on the
// monitor's goroutine as soon as the child exits, with the wait error.
func watchChild(cmd *exec.Cmd, onDeath func(error)) *childMonitor {
	mon := &childMonitor{cmd: cmd, done: make(chan struct{}), hook: onDeath}
	go func() {
		mon.err = cmd.Wait()
		mon.dead.Store(true) // publishes err: Store orders after the write
		close(mon.done)
		mon.hookMu.Lock()
		cb := mon.hook
		mon.fired = true
		mon.hookMu.Unlock()
		if cb != nil {
			cb(mon.err)
		}
	}()
	return mon
}

// setOnDeath replaces the monitor's death callback — how a warm-pool
// sentinel's supervision is handed from the pool (evict the idle entry) to
// the transport that adopted it (poison the mux). If the child already died,
// cb is invoked immediately on the caller's goroutine, so a handoff can
// never miss the death notification.
func (mon *childMonitor) setOnDeath(cb func(error)) {
	mon.hookMu.Lock()
	if mon.fired {
		mon.hookMu.Unlock()
		if cb != nil {
			cb(mon.err)
		}
		return
	}
	mon.hook = cb
	mon.hookMu.Unlock()
}

// exited reports, without blocking, whether the child has exited and with
// what wait error.
func (mon *childMonitor) exited() (error, bool) {
	if !mon.dead.Load() {
		return nil, false
	}
	return mon.err, true
}

// reap waits for the child to exit, killing it if it outlives the timeout.
func (mon *childMonitor) reap() error {
	select {
	case <-mon.done:
		return mon.err
	case <-time.After(childWaitTimeout):
		mon.cmd.Process.Kill()
		<-mon.done
		return mon.err
	}
}

// sentinelDeath wraps a wait outcome as the EIO-class session error.
func sentinelDeath(waitErr error) error {
	if waitErr == nil {
		return fmt.Errorf("%w: exited before session close", ErrSentinelDied)
	}
	return fmt.Errorf("%w: %v", ErrSentinelDied, waitErr)
}

// opTimeoutParam parses the manifest's per-operation deadline for control
// exchanges ("optimeout", a Go duration; empty or absent disables it).
func opTimeoutParam(m vfs.Manifest) (time.Duration, error) {
	v := m.Params["optimeout"]
	if v == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("core: bad optimeout param %q", v)
	}
	return d, nil
}

// processTransport is the client side of the plain process strategy (§4.1):
// two data pipes, no control channel. Reads pull the next bytes of the
// sentinel's output stream; writes push onto its input stream; everything
// else is unsupported.
type processTransport struct {
	cmd *exec.Cmd
	cf  *ipc.ChannelFiles
	mon *childMonitor
}

var _ transport = (*processTransport)(nil)

func newProcessTransport(manifestPath string, m vfs.Manifest) (*processTransport, error) {
	cmd, cf, _, _, err := spawnSentinel(manifestPath, m, StrategyProcess)
	if err != nil {
		return nil, err
	}
	t := &processTransport{cmd: cmd, cf: cf}
	t.mon = watchChild(cmd, nil)
	return t, nil
}

func (t *processTransport) readAt(p []byte, _ int64) (int, error) {
	n, err := t.cf.FromChild.Read(p)
	if err != nil && errors.Is(err, io.EOF) {
		// Pipe EOF is how both a finished stream AND a crashed sentinel
		// look. Distinguish them: a child that already failed turns the
		// counterfeit clean EOF into the honest EIO-class error.
		if waitErr, dead := t.mon.exited(); dead && waitErr != nil {
			return n, sentinelDeath(waitErr)
		}
	}
	return n, err
}

func (t *processTransport) writeAt(p []byte, _ int64) (int, error) {
	n, err := t.cf.ToChild.Write(p)
	if err != nil {
		if waitErr, dead := t.mon.exited(); dead {
			return n, sentinelDeath(waitErr)
		}
	}
	return n, err
}

func (t *processTransport) size() (int64, error)    { return 0, wire.ErrUnsupported }
func (t *processTransport) truncate(int64) error    { return wire.ErrUnsupported }
func (t *processTransport) sync() error             { return wire.ErrUnsupported }
func (t *processTransport) lock(_, _ int64) error   { return wire.ErrUnsupported }
func (t *processTransport) unlock(_, _ int64) error { return wire.ErrUnsupported }
func (t *processTransport) control([]byte) ([]byte, error) {
	return nil, wire.ErrUnsupported
}

func (t *processTransport) close() error {
	// Closing our pipe ends delivers EOF to the sentinel's writer loop and
	// EPIPE to its reader loop; it then flushes and exits.
	t.cf.Close()
	if err := t.mon.reap(); err != nil {
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			return fmt.Errorf("sentinel process: %w", err)
		}
		return err
	}
	return nil
}

// procCtlTransport is the client side of the process-plus-control strategy
// (§4.2): requests travel as commands on the control pipe; read results
// return as frames on the read pipe; write payloads stream down the write
// pipe without waiting for completion, exactly the asymmetry Figure 6
// measures ("writes are issued without waiting for their completion"). The
// pipe pair is driven through an ipc.Mux, so any number of goroutines keep
// exchanges in flight concurrently, correlated by Seq rather than lockstep
// ordering.
//
// Failure handling: a childMonitor poisons the mux the instant the sentinel
// subprocess exits, so every in-flight and future exchange reports
// ErrSentinelDied promptly instead of blocking on a pipe no one will ever
// answer. An optional per-operation deadline (manifest param "optimeout")
// additionally bounds every waiting exchange even while the child is alive
// but unresponsive.
type procCtlTransport struct {
	cmd       *exec.Cmd
	cf        *ipc.ChannelFiles
	seg       *shm.Segment  // dedicated shared-memory segment; nil on pipe or lane carriers
	lane      *laneConn     // shared MPSC lane; nil off the lane plane
	fallback  string        // why the requested carrier was demoted ("" otherwise)
	conn      ipc.FrameConn // the session conduit the mux runs over
	mux       *ipc.Mux
	pf        *prefetcher // client-side read-ahead; nil when opted out
	mon       *childMonitor
	closing   atomic.Bool // set by close(); suppresses the death hook
	opTimeout time.Duration

	// Warm-pool replenishment, armed for pooled manifests: close() tops the
	// pool back up, so the replacement's fork+exec overlaps the NEXT
	// session's application work instead of contending with the latency-
	// sensitive open+first-ops window that follows an adoption.
	poolPath string
	poolM    vfs.Manifest
	poolN    int
}

var _ transport = (*procCtlTransport)(nil)

func newProcCtlTransport(manifestPath string, m vfs.Manifest) (*procCtlTransport, error) {
	opTimeout, err := opTimeoutParam(m)
	if err != nil {
		return nil, err
	}
	poolN, err := poolParam(m)
	if err != nil {
		return nil, err
	}
	lanes, err := shmLanesParam(m)
	if err != nil {
		return nil, err
	}
	var laneFallback string
	if lanes > 0 {
		// Lane plane: multiplex this session onto a shared MPSC segment —
		// one sentinel and five descriptors serve up to `lanes` sessions of
		// this manifest. Any plane-level refusal falls back to a dedicated
		// session below, with the reason surfaced through carrier stats.
		t, reason, err := acquireLaneTransport(manifestPath, m, opTimeout, lanes)
		if err != nil {
			return nil, err
		}
		if t != nil {
			return t, nil
		}
		laneFallback = "lane plane: " + reason
	}
	if poolN > 0 {
		// Warm path: adopt a pre-spawned sentinel and rebind it with one
		// pipe handshake instead of fork+exec. The pool is topped back up
		// when this session closes, not here — see close().
		if t, ok := acquireWarmTransport(manifestPath, m, opTimeout); ok {
			t.poolPath, t.poolM, t.poolN = manifestPath, m, poolN
			if laneFallback != "" {
				if t.fallback != "" {
					t.fallback = laneFallback + "; " + t.fallback
				} else {
					t.fallback = laneFallback
				}
			}
			return t, nil
		}
	}
	cmd, cf, seg, fallback, err := spawnSentinel(manifestPath, m, StrategyProcCtl)
	if err != nil {
		return nil, err
	}
	if laneFallback != "" {
		// The session runs, but not on the shared plane it asked for; keep
		// both demotion reasons visible.
		if fallback != "" {
			fallback = laneFallback + "; " + fallback
		} else {
			fallback = laneFallback
		}
	}
	t := &procCtlTransport{
		cmd:       cmd,
		cf:        cf,
		seg:       seg,
		fallback:  fallback,
		conn:      sessionConn(cf, seg),
		opTimeout: opTimeout,
		poolPath:  manifestPath,
		poolM:     m,
		poolN:     poolN,
	}
	t.mux = ipc.NewMuxConn(t.conn)
	t.mon = watchChild(cmd, func(waitErr error) {
		if t.closing.Load() {
			return
		}
		// Sentinel death detection: waitpid fired while the session was
		// open. Fail every blocked and future exchange right now — the
		// pipes may deliver EOF only much later (or never, for the write
		// pipe), and nothing should wait to find out. A dead peer also
		// never rings a doorbell again, so the segment is closed here too:
		// that wakes the receive loop off its parked ring and unmaps the
		// memory instead of leaving it pinned for the session's remainder.
		t.mux.Fail(sentinelDeath(waitErr))
		if t.seg != nil {
			t.seg.Close()
		}
	})
	if m.Params["readahead"] != "false" {
		// Client-side window: sequential reads are answered by a memcpy out
		// of the window while an async fill — pipelined on the mux — keeps
		// it ahead of the application. This is where the pipe round trip
		// leaves the per-read critical path entirely.
		t.pf = newPrefetcher(t.muxReadAt, true)
	}
	return t, nil
}

// acquireLaneTransport opens one session on the shared MPSC lane plane. A
// nil transport with a non-empty reason means the plane refused (no lanes,
// spawn failure, unsupported platform) and the caller should fall back to a
// dedicated session; a non-nil error is a real session error — the program
// itself refused to open — that a dedicated sentinel would report
// identically, so no fallback is warranted.
func acquireLaneTransport(manifestPath string, m vfs.Manifest, opTimeout time.Duration, lanes int) (*procCtlTransport, string, error) {
	conn, reason, err := lanePlane.acquire(manifestPath, m, lanes)
	if err != nil {
		return nil, "", err
	}
	if conn == nil {
		return nil, reason, nil
	}
	t := &procCtlTransport{
		lane:      conn,
		conn:      conn,
		mon:       conn.ls.mon,
		opTimeout: opTimeout,
	}
	t.mux = ipc.NewMuxConn(conn)
	// Death fan-out: the hub's child monitor reaches this session through
	// the conduit's onFail hook. If the shared sentinel died before the hook
	// was set, the response queue is already closed and the handshake below
	// poisons the mux through its EOF instead.
	conn.setOnFail(func(err error) {
		if !t.closing.Load() {
			t.mux.Fail(err)
		}
	})
	// OpOpen handshake: the lane's server opens its own handler instance and
	// answers with the outcome — the same rebind a warm-pool adoption runs.
	ctx, cancel := context.WithTimeout(context.Background(), laneOpenTimeout)
	resp, rtErr := t.mux.RoundTripContext(ctx, &wire.Request{Op: wire.OpOpen}, nil)
	cancel()
	if rtErr != nil {
		t.mux.Close()
		conn.Close()
		return nil, fmt.Sprintf("lane open handshake: %v", rtErr), nil
	}
	if oerr := wire.ToError(wire.OpOpen, resp.Status, resp.Msg); oerr != nil {
		t.mux.Close()
		conn.Close()
		return nil, "", oerr
	}
	if m.Params["readahead"] != "false" {
		t.pf = newPrefetcher(t.muxReadAt, true)
	}
	return t, "", nil
}

// batchStats exposes the mux's command-channel flush amortization to
// Handle.BatchStats.
func (t *procCtlTransport) batchStats() wire.BatchStats { return t.mux.BatchStats() }

// carrierInfo reports which conduit the session actually runs on and, when a
// requested shm carrier was demoted, the one-shot rejection reason recorded
// at spawn — surfaced through Handle.Stats so silent fallback is observable.
func (t *procCtlTransport) carrierInfo() (carrier, fallback string) {
	if t.lane != nil || t.seg != nil {
		// Ring carrier — dedicated segment or a lane of a shared one. The
		// fallback slot still reports a lane→dedicated demotion, so an
		// operator can tell a chosen dedicated segment from a demoted one.
		return "shm", t.fallback
	}
	return "pipe", t.fallback
}

// dataPlaneStats exposes the session's syscall-economy counters to
// Handle.DataPlaneStats: doorbells rung vs suppressed on the rings (both
// directions, both processes — the counters live in the shared segment) and
// response frames decoded per receive wakeup on the mux.
func (t *procCtlTransport) dataPlaneStats() DataPlaneStats {
	s := DataPlaneStats{CarrierFallback: t.fallback, Carrier: "pipe"}
	switch {
	case t.lane != nil:
		// Shared segment: counters and descriptors are per segment, not per
		// session — SegmentSessions says how many ways they are split.
		s.Carrier = "shm"
		ls := t.lane.ls
		for _, q := range []*shm.MPSCQueue{ls.seg.Cmd(), ls.seg.Reply()} {
			qs := q.Stats()
			s.Doorbells += qs.Doorbells
			s.Suppressed += qs.Suppressed
		}
		claimed, draining := ls.seg.LaneCounts()
		s.SegmentSessions = claimed + draining
		s.SegmentFDs = 5 // segment file + four doorbells
		s.DoorbellFDs = 4
	case t.seg != nil:
		s.Carrier = "shm"
		for _, r := range t.seg.Rings() {
			rs := r.Stats()
			s.Doorbells += rs.Doorbells
			s.Suppressed += rs.Suppressed
		}
		s.SegmentSessions = 1
		s.SegmentFDs = 1 + 2*len(t.seg.Rings())
		s.DoorbellFDs = 2 * len(t.seg.Rings())
	}
	rs := t.mux.RecvStatsSnapshot()
	s.RecvFrames, s.RecvWakeups = rs.Frames, rs.Wakeups
	return s
}

// roundTrip performs one control exchange, bounded by the configured
// per-operation deadline when one is set.

func (t *procCtlTransport) roundTrip(req *wire.Request, dst []byte) (wire.Response, error) {
	if t.opTimeout <= 0 {
		resp, err := t.mux.RoundTrip(req, dst)
		return resp, t.deathVerdict(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), t.opTimeout)
	defer cancel()
	resp, err := t.mux.RoundTripContext(ctx, req, dst)
	return resp, t.deathVerdict(err)
}

// deathVerdict upgrades a transport error to ErrSentinelDied once the
// monitor confirms the child exited. The upgrade is needed because pipe EOF
// can win the race against waitpid: the receive loop poisons the mux with
// the EOF first, the first poison sticks, and without this check the session
// would keep reporting a bare EOF for a crash. Deadline expiry is left
// alone — it is the caller's deadline verdict, not a death report.
func (t *procCtlTransport) deathVerdict(err error) error {
	if err == nil || t.closing.Load() ||
		errors.Is(err, ErrSentinelDied) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	if waitErr, dead := t.mon.exited(); dead {
		return sentinelDeath(waitErr)
	}
	return err
}

func (t *procCtlTransport) readAt(p []byte, off int64) (int, error) {
	if n, err, ok := t.pf.readAt(p, off); ok {
		return n, err
	}
	n, err := t.muxReadAt(p, off)
	if err == nil || errors.Is(err, io.EOF) {
		t.pf.afterRead(off, n, len(p), errors.Is(err, io.EOF))
	}
	return n, err
}

// muxReadAt reads through the control channel, chunked to the frame payload
// bound — the window-miss path, and the prefetcher's fill source.
func (t *procCtlTransport) muxReadAt(p []byte, off int64) (int, error) {
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		// The response payload lands straight in the caller's slice.
		resp, err := t.roundTrip(
			&wire.Request{Op: wire.OpRead, Off: off + int64(total), N: int64(chunk)},
			p[total:total+chunk],
		)
		if err != nil {
			return total, err
		}
		n := len(resp.Data)
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

func (t *procCtlTransport) writeAt(p []byte, off int64) (int, error) {
	defer t.pf.invalidate() // written content may overlap the window
	total := 0
	for total < len(p) {
		chunk := len(p) - total
		if chunk > wire.MaxPayload {
			chunk = wire.MaxPayload
		}
		// "write N" on the control channel, then N bytes on the write pipe;
		// no acknowledgement — failures surface on the next sync/close. The
		// mux keeps command and payload order aligned across goroutines.
		req := wire.Request{Op: wire.OpWrite, Off: off + int64(total), N: int64(chunk)}
		if err := t.mux.Post(&req, p[total:total+chunk]); err != nil {
			return total, t.deathVerdict(err)
		}
		total += chunk
	}
	return total, nil
}

func (t *procCtlTransport) size() (int64, error) {
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpSize}, nil)
	if err != nil {
		return 0, err
	}
	return resp.N, wire.ToError(wire.OpSize, resp.Status, resp.Msg)
}

func (t *procCtlTransport) truncate(n int64) error {
	defer t.pf.invalidate()
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpTruncate, Off: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpTruncate, resp.Status, resp.Msg)
}

func (t *procCtlTransport) sync() error {
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpSync}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpSync, resp.Status, resp.Msg)
}

func (t *procCtlTransport) lock(off, n int64) error {
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpLock, Off: off, N: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpLock, resp.Status, resp.Msg)
}

func (t *procCtlTransport) unlock(off, n int64) error {
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpUnlock, Off: off, N: n}, nil)
	if err != nil {
		return err
	}
	return wire.ToError(wire.OpUnlock, resp.Status, resp.Msg)
}

func (t *procCtlTransport) control(req []byte) ([]byte, error) {
	defer t.pf.invalidate() // the program may mutate content out of band
	resp, err := t.roundTrip(&wire.Request{Op: wire.OpControl, Data: req}, nil)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(resp.Data))
	copy(out, resp.Data)
	return out, wire.ToError(wire.OpControl, resp.Status, resp.Msg)
}

func (t *procCtlTransport) close() error {
	// A read-ahead fill still in flight would otherwise send its request
	// after OpClose, onto rings the sentinel has already closed.
	t.pf.quiesce()
	t.closing.Store(true)
	resp, rtErr := t.roundTrip(&wire.Request{Op: wire.OpClose}, nil)
	t.mux.Close()
	t.conn.Close()
	if t.lane != nil {
		// Lane session: hand the lane back and leave. The shared sentinel
		// keeps serving every other lane; only the hub (or its death) reaps
		// it. The close barrier above already settled this session's writes.
		if rtErr != nil {
			if waitErr, dead := t.mon.exited(); dead {
				return sentinelDeath(waitErr)
			}
			return rtErr
		}
		return wire.ToError(wire.OpClose, resp.Status, resp.Msg)
	}
	waitErr := t.mon.reap()
	if t.poolN > 0 {
		// Recycle point: replace whatever this session consumed from the
		// warm pool (or prime it after a cold first open), off the open path.
		procPool.ensure(t.poolPath, t.poolM, t.poolN)
	}
	switch {
	case rtErr != nil && (errors.Is(rtErr, io.EOF) || errors.Is(rtErr, ErrSentinelDied)):
		// Child already exited; its wait status is the verdict.
		return waitErr
	case rtErr != nil:
		return rtErr
	default:
		if err := wire.ToError(wire.OpClose, resp.Status, resp.Msg); err != nil {
			return err
		}
		return waitErr
	}
}
