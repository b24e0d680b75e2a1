package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
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
	// envShmLanes marks a sentinel serving the lanes of an inherited shm
	// segment and carries the segment's lane count.
	envShmLanes = "AF_SENTINEL_SHM_LANES"
)

const (
	// childWaitTimeout bounds how long Close waits for a sentinel subprocess
	// to exit before killing it.
	childWaitTimeout = 5 * time.Second
	// handshakeTimeout bounds the OpOpen handshake that binds a lane server
	// to a session. A sentinel that cannot answer in time is discarded, so
	// it can delay an open, never hang it.
	handshakeTimeout = 5 * time.Second
)

// ErrSentinelDied reports that the sentinel subprocess backing a session
// exited while the session was still open — the EIO-class verdict for a
// crashed or killed sentinel, surfaced promptly instead of as a hang or a
// counterfeit clean EOF.
var ErrSentinelDied = errors.New("core: sentinel process died")

// spawnSentinel starts the sentinel subprocess for manifestPath with the
// pipe layout of the given strategy. A non-nil seg makes it a lane sentinel:
// the segment's files follow the pipes and envShmLanes tells the child to
// serve them. When the manifest names an external executable it is run
// directly; otherwise the current binary is re-executed in child mode (the
// offline substitute for a separate sentinel image).
func spawnSentinel(manifestPath string, m vfs.Manifest, strategy Strategy, seg *shm.MPSCSegment) (*exec.Cmd, *ipc.ChannelFiles, error) {
	cf, err := ipc.NewChannelFiles(strategy == StrategyProcCtl)
	if err != nil {
		return nil, nil, err
	}
	var cmd *exec.Cmd
	if m.Program.Exec != "" {
		cmd = exec.Command(m.Program.Exec, m.Program.Args...)
	} else {
		self, err := os.Executable()
		if err != nil {
			cf.Close()
			return nil, nil, fmt.Errorf("locate own executable: %w", err)
		}
		cmd = exec.Command(self)
	}
	cmd.Env = append(os.Environ(),
		envChildMarker+"=1",
		envManifest+"="+manifestPath,
		envStrategy+"="+strategy.String(),
	)
	cmd.ExtraFiles = cf.ChildFiles()
	if seg != nil {
		cmd.Env = append(cmd.Env, envShmLanes+"="+strconv.Itoa(seg.Lanes()))
		// Segment files follow the pipes; unlike pipe ends they are shared,
		// not paired, so the parent keeps every one of them open.
		cmd.ExtraFiles = append(cmd.ExtraFiles, seg.ChildFiles()...)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		cf.Close()
		return nil, nil, fmt.Errorf("start sentinel process: %w", err)
	}
	cf.CloseChildEnds()
	return cmd, cf, nil
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
}

// watchChild begins supervising cmd. onDeath (optional) runs on the
// monitor's goroutine as soon as the child exits, with the wait error.
func watchChild(cmd *exec.Cmd, onDeath func(error)) *childMonitor {
	mon := &childMonitor{cmd: cmd, done: make(chan struct{})}
	go func() {
		mon.err = cmd.Wait()
		mon.dead.Store(true) // publishes err: Store orders after the write
		close(mon.done)
		if onDeath != nil {
			onDeath(mon.err)
		}
	}()
	return mon
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
	cmd, cf, err := spawnSentinel(manifestPath, m, StrategyProcess, nil)
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
// (§4.2): requests travel as commands on the control channel; read results
// return as response frames; write payloads stream down the data channel
// without waiting for completion, exactly the asymmetry Figure 6 measures
// ("writes are issued without waiting for their completion"). The channels
// are driven through an ipc.Mux, so any number of goroutines keep exchanges
// in flight concurrently, correlated by Seq rather than lockstep ordering.
// They run over a pipe trio (transport=pipe, the default) or over a lane of
// a shared-memory segment (transport=shm).
//
// Failure handling: a childMonitor poisons the mux the instant the sentinel
// subprocess exits, so every in-flight and future exchange reports
// ErrSentinelDied promptly instead of blocking on a channel no one will ever
// answer. An optional per-operation deadline (manifest param "optimeout")
// additionally bounds every waiting exchange even while the child is alive
// but unresponsive.
type procCtlTransport struct {
	cmd       *exec.Cmd         // the session's own sentinel; nil on a lane
	cf        *ipc.ChannelFiles // the session's pipes; nil on a lane
	lane      *laneConn         // the session's shm lane; nil on pipes
	fallback  string            // why a transport=shm request runs on pipes ("" otherwise)
	conn      ipc.FrameConn     // the session conduit the mux runs over
	mux       *ipc.Mux
	pf        *prefetcher // client-side read-ahead; nil when opted out
	mon       *childMonitor
	closing   atomic.Bool // set by close(); suppresses the death hook
	opTimeout time.Duration
}

var _ transport = (*procCtlTransport)(nil)

// newMuxTransport drives a procctl session over conn through a fresh mux.
func newMuxTransport(conn ipc.FrameConn, o sessionOptions) *procCtlTransport {
	t := &procCtlTransport{conn: conn, opTimeout: o.opTimeout}
	t.mux = ipc.NewMuxConn(conn)
	if o.readAhead {
		// Client-side window: sequential reads are answered by a memcpy out
		// of the window while an async fill — pipelined on the mux — keeps
		// it ahead of the application. This is where the round trip leaves
		// the per-read critical path entirely.
		t.pf = newPrefetcher(t.muxReadAt, true)
	}
	return t
}

func newProcCtlTransport(manifestPath string, m vfs.Manifest, o sessionOptions) (*procCtlTransport, error) {
	var fallback string
	if o.transport == "shm" {
		t, reason, err := acquireLaneTransport(manifestPath, m, o)
		if t != nil || err != nil {
			return t, err
		}
		// The lane plane could not serve the session; pipes serve every
		// session a lane does, and the reason stays visible in the stats.
		fallback = reason
	}
	cmd, cf, err := spawnSentinel(manifestPath, m, StrategyProcCtl, nil)
	if err != nil {
		return nil, err
	}
	t := newMuxTransport(ipc.PipeConn{CF: cf}, o)
	t.cmd, t.cf, t.fallback = cmd, cf, fallback
	// Sentinel death detection: waitpid fired while the session was open.
	// Fail every blocked and future exchange right now — the pipes may
	// deliver EOF only much later (or never, for the write pipe), and
	// nothing should wait to find out.
	t.mon = watchChild(cmd, func(waitErr error) { t.fail(sentinelDeath(waitErr)) })
	return t, nil
}

// fail poisons every blocked and future exchange with err once the sentinel
// is gone, unless the session is closing deliberately.
func (t *procCtlTransport) fail(err error) {
	if !t.closing.Load() {
		t.mux.Fail(err)
	}
}

// handshake binds an already-running lane server to this session: OpOpen
// makes it open its program, and the answer carries the outcome. rtErr
// reports that no answer came within handshakeTimeout (or the sentinel died
// first); openErr is the program's own open error, which a freshly spawned
// sentinel would report identically.
func (t *procCtlTransport) handshake() (rtErr, openErr error) {
	ctx, cancel := context.WithTimeout(context.Background(), handshakeTimeout)
	defer cancel()
	resp, err := t.mux.RoundTripContext(ctx, &wire.Request{Op: wire.OpOpen}, nil)
	if err != nil {
		return err, nil
	}
	return nil, wire.ToError(wire.OpOpen, resp.Status, resp.Msg)
}

// batchStats exposes the mux's command-channel flush amortization to
// Handle.BatchStats.
func (t *procCtlTransport) batchStats() wire.BatchStats { return t.mux.BatchStats() }

// carrierInfo reports which conduit the session actually runs on and, when a
// requested shm carrier was demoted to pipes, the one-shot reason recorded
// at open — surfaced through Handle.Stats so silent fallback is observable.
func (t *procCtlTransport) carrierInfo() (carrier, fallback string) {
	if t.lane != nil {
		return "shm", t.fallback
	}
	return "pipe", t.fallback
}

// dataPlaneStats exposes the session's syscall-economy counters to
// Handle.DataPlaneStats: doorbells rung vs suppressed on the shm queues
// (both directions, both processes — the counters live in the shared
// segment) and response frames decoded per receive wakeup on the mux.
func (t *procCtlTransport) dataPlaneStats() DataPlaneStats {
	s := DataPlaneStats{}
	s.Carrier, s.CarrierFallback = t.carrierInfo()
	if t.lane != nil {
		// Counters and descriptors are per segment, not per session —
		// SegmentSessions says how many ways they are split.
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
	// after OpClose, onto channels the sentinel has already closed.
	t.pf.quiesce()
	t.closing.Store(true)
	resp, rtErr := t.roundTrip(&wire.Request{Op: wire.OpClose}, nil)
	t.mux.Close()
	t.conn.Close()
	if t.lane != nil {
		// Lane session: closing the conduit handed the lane back, and
		// retired the segment and reaped its sentinel if no other session
		// holds a lane on it and pool does not keep it. The close barrier
		// above already settled this session's writes.
		if rtErr != nil {
			if waitErr, dead := t.mon.exited(); dead {
				return sentinelDeath(waitErr)
			}
			return rtErr
		}
		return wire.ToError(wire.OpClose, resp.Status, resp.Msg)
	}
	waitErr := t.mon.reap()
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
