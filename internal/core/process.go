package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
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
	// envShmLanes marks a sentinel serving the lanes of an inherited shm
	// segment and carries the segment's lane count.
	envShmLanes = "AF_SENTINEL_SHM_LANES"
)

const (
	// childWaitTimeout bounds how long Close waits for a sentinel subprocess
	// to exit before killing it.
	childWaitTimeout = 5 * time.Second
)

// handshakeTimeout bounds a lane's OpOpen handshake: a silent lane sentinel
// pins its segment, so the session falls back to pipes. A pipe handshake is
// bounded like any exchange (optimeout); its sentinel's death poisons the
// mux. A variable so tests can shorten it.
var handshakeTimeout = 5 * time.Second

// ErrSentinelDied reports that the sentinel subprocess backing a session
// exited while the session was still open — the EIO-class verdict for a
// crashed or killed sentinel, surfaced promptly instead of as a hang or a
// counterfeit clean EOF.
var ErrSentinelDied = errors.New("core: sentinel process died")

// sentinelProc is one sentinel subprocess and the pipes wired to it. It owns
// the one allowed cmd.Wait call: a monitor goroutine publishes the exit the
// moment it happens, so carriers learn about a death through the onDeath
// hook instead of discovering it as a mid-operation hang, and stop reaps
// through the same channel. A pipe session conn, a lane segment and a plain
// process transport each own one.
type sentinelProc struct {
	cmd       *exec.Cmd
	cf        *ipc.ChannelFiles
	closeOnce sync.Once
	done      chan struct{}
	err       error // cmd.Wait result; valid once dead is true
	dead      atomic.Bool
}

// spawnSentinel starts the sentinel subprocess for manifestPath with the
// pipe layout of the given strategy. A non-nil seg makes it a lane sentinel:
// the segment's files follow the pipes and envShmLanes tells the child to
// serve them. When the manifest names an external executable it is run
// directly; otherwise the current binary is re-executed in child mode (the
// offline substitute for a separate sentinel image). The caller starts the
// monitor with watch once the owner the death hook reaches is built.
func spawnSentinel(manifestPath string, m vfs.Manifest, strategy Strategy, seg *shm.MPSCSegment) (*sentinelProc, error) {
	cf, err := ipc.NewChannelFiles(strategy == StrategyProcCtl)
	if err != nil {
		return nil, err
	}
	var cmd *exec.Cmd
	if m.Program.Exec != "" {
		cmd = exec.Command(m.Program.Exec, m.Program.Args...)
	} else {
		self, err := os.Executable()
		if err != nil {
			cf.Close()
			return nil, fmt.Errorf("locate own executable: %w", err)
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
		return nil, fmt.Errorf("start sentinel process: %w", err)
	}
	cf.CloseChildEnds()
	return &sentinelProc{cmd: cmd, cf: cf, done: make(chan struct{})}, nil
}

// watch begins supervising the child. onDeath (optional) runs on the
// monitor's goroutine as soon as the child exits, with the wait error.
func (p *sentinelProc) watch(onDeath func(error)) {
	go func() {
		p.err = p.cmd.Wait()
		p.dead.Store(true) // publishes err: Store orders after the write
		close(p.done)
		if onDeath != nil {
			onDeath(p.err)
		}
	}()
}

// exited reports, without blocking, whether the child has exited and with
// what wait error.
func (p *sentinelProc) exited() (error, bool) {
	if !p.dead.Load() {
		return nil, false
	}
	return p.err, true
}

// closeFiles closes the parent's pipe ends, which is how every sentinel
// learns its work is over: EOF on its intake or on its watchdog. Safe to
// call from any goroutine, any number of times.
func (p *sentinelProc) closeFiles() {
	p.closeOnce.Do(func() { p.cf.Close() })
}

// stop ends the sentinel deliberately: it closes the pipes and waits for the
// child to exit, killing it if it outlives childWaitTimeout. It returns the
// wait error.
func (p *sentinelProc) stop() error {
	p.closeFiles()
	select {
	case <-p.done:
	case <-time.After(childWaitTimeout):
		p.cmd.Process.Kill()
		<-p.done
	}
	return p.err
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
	proc *sentinelProc
}

var _ transport = (*processTransport)(nil)

func newProcessTransport(manifestPath string, m vfs.Manifest) (*processTransport, error) {
	proc, err := spawnSentinel(manifestPath, m, StrategyProcess, nil)
	if err != nil {
		return nil, err
	}
	proc.watch(nil)
	return &processTransport{proc: proc}, nil
}

func (t *processTransport) readAt(p []byte, _ int64) (int, error) {
	n, err := t.proc.cf.FromChild.Read(p)
	if err != nil && errors.Is(err, io.EOF) {
		// Pipe EOF is how both a finished stream AND a crashed sentinel
		// look. Distinguish them: a child that already failed turns the
		// counterfeit clean EOF into the honest EIO-class error.
		if waitErr, dead := t.proc.exited(); dead && waitErr != nil {
			return n, sentinelDeath(waitErr)
		}
	}
	return n, err
}

func (t *processTransport) writeAt(p []byte, _ int64) (int, error) {
	n, err := t.proc.cf.ToChild.Write(p)
	if err != nil {
		if waitErr, dead := t.proc.exited(); dead {
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
	if err := t.proc.stop(); err != nil {
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) {
			return fmt.Errorf("sentinel process: %w", err)
		}
		return err
	}
	return nil
}

// sessionConn is the carrier under one procctl session, pipeConn or
// laneConn: the framed conduit the mux runs over, plus the sentinel as the
// session sees it. Close ends the session's tenancy, returning the wait
// error when the session owned the sentinel. setOnFail registers the hook
// fired with the session's error when the sentinel dies; exited reports,
// without blocking, whether it has exited and with what wait error.
type sessionConn interface {
	Ctrl() io.Writer // command frames to the sentinel
	Resp() io.Reader // response frames from it; Close unblocks a parked reader
	Data() io.Writer // bulk write payloads to it
	Close() error
	setOnFail(func(error))
	exited() (error, bool)
	carrier() string       // "pipe" or "shm"
	stats() DataPlaneStats // the carrier's own counters
}

// pipeConn is a procctl session's own sentinel and its pipe trio: commands
// on the control pipe, posted write payloads on the to-child data pipe,
// responses on the from-child one.
type pipeConn struct {
	proc   *sentinelProc
	onFail atomic.Pointer[func(error)]
}

var _ sessionConn = (*pipeConn)(nil)

func newPipeConn(manifestPath string, m vfs.Manifest) (*pipeConn, error) {
	proc, err := spawnSentinel(manifestPath, m, StrategyProcCtl, nil)
	if err != nil {
		return nil, err
	}
	c := &pipeConn{proc: proc}
	// waitpid fired while the session was open: the pipes may deliver EOF
	// only much later (or never, for the write pipe), so the death is
	// reported now.
	proc.watch(func(waitErr error) {
		if f := c.onFail.Load(); f != nil {
			(*f)(sentinelDeath(waitErr))
		}
	})
	return c, nil
}

func (c *pipeConn) Ctrl() io.Writer         { return c.proc.cf.CtrlToChild }
func (c *pipeConn) Resp() io.Reader         { return c.proc.cf.FromChild }
func (c *pipeConn) Data() io.Writer         { return c.proc.cf.ToChild }
func (c *pipeConn) Close() error            { return c.proc.stop() }
func (c *pipeConn) setOnFail(f func(error)) { c.onFail.Store(&f) }
func (c *pipeConn) exited() (error, bool)   { return c.proc.exited() }
func (c *pipeConn) carrier() string         { return "pipe" }
func (c *pipeConn) stats() DataPlaneStats   { return DataPlaneStats{} }

// procCtlTransport is the client side of the process-plus-control strategy
// (§4.2): requests travel as commands on the control channel; read results
// return as response frames; write payloads stream down the data channel
// without waiting for completion, exactly the asymmetry Figure 6 measures
// ("writes are issued without waiting for their completion"). The channels
// are driven through an ipc.Mux, so any number of goroutines keep exchanges
// in flight concurrently, correlated by Seq rather than lockstep ordering.
// They run over a pipe trio (transport=pipe, the default) or over a lane of
// a shared-memory segment (transport=shm); either way the session opens
// with the same OpOpen handshake.
//
// Failure handling: the carrier's death hook poisons the mux the instant the
// sentinel subprocess exits, so every in-flight and future exchange reports
// ErrSentinelDied promptly instead of blocking on a channel no one will ever
// answer. An optional per-operation deadline (manifest param "optimeout")
// additionally bounds every waiting exchange even while the child is alive
// but unresponsive.
type procCtlTransport struct {
	conn      sessionConn
	fallback  string // why a transport=shm request runs on pipes ("" otherwise)
	mux       *ipc.Mux
	pf        *prefetcher // client-side read-ahead; nil when opted out
	closing   atomic.Bool // set by close(); suppresses the death hook
	opTimeout time.Duration
}

var _ transport = (*procCtlTransport)(nil)

func newProcCtlTransport(manifestPath string, m vfs.Manifest, o sessionOptions) (*procCtlTransport, error) {
	var fallback string
	if o.transport == "shm" {
		conn, reason := lanePlane.acquire(manifestPath, m, o)
		if conn != nil {
			t, rtErr, openErr := openSession(conn, o, "", handshakeTimeout)
			if rtErr == nil {
				return t, openErr
			}
			reason = fmt.Sprintf("lane open handshake: %v", rtErr)
		}
		// The lane plane could not serve the session; pipes serve every
		// session a lane does, and the reason stays visible in the stats.
		fallback = reason
	}
	conn, err := newPipeConn(manifestPath, m)
	if err != nil {
		return nil, err
	}
	t, rtErr, openErr := openSession(conn, o, fallback, o.opTimeout)
	if rtErr != nil {
		return nil, fmt.Errorf("sentinel open handshake: %w", rtErr)
	}
	return t, openErr
}

// openSession is the one procctl open sequence, for every carrier: a fresh
// mux, the sentinel's death hook, then the OpOpen handshake, bounded by
// timeout (0 waits for the answer or the sentinel's death). On failure it
// unwinds the carrier; rtErr reports that no answer came (a death before the
// hook was set ends the response stream, so it lands here too), openErr is
// the program's own open error.
func openSession(conn sessionConn, o sessionOptions, fallback string, timeout time.Duration) (t *procCtlTransport, rtErr, openErr error) {
	t = &procCtlTransport{
		conn:      conn,
		fallback:  fallback,
		mux:       ipc.NewMux(conn.Ctrl(), conn.Resp(), conn.Data()),
		opTimeout: o.opTimeout,
	}
	conn.setOnFail(t.fail)
	resp, rtErr := t.exchange(&wire.Request{Op: wire.OpOpen}, nil, timeout)
	if rtErr == nil {
		openErr = wire.ToError(wire.OpOpen, resp.Status, resp.Msg)
	}
	if rtErr != nil || openErr != nil {
		t.closing.Store(true)
		t.mux.Close()
		conn.Close()
		return nil, rtErr, openErr
	}
	if o.readAhead {
		// Client-side window: sequential reads are answered by a memcpy out
		// of the window while an async fill — pipelined on the mux — keeps
		// it ahead of the application. This is where the round trip leaves
		// the per-read critical path entirely.
		t.pf = newPrefetcher(t.muxReadAt, true)
	}
	return t, nil, nil
}

// deathDrainWait bounds how long a death report waits for the receive loop
// to drain the carrier; it is the backstop for a carrier that never reaches
// EOF, such as a pipe a grandchild of the sentinel still holds open.
const deathDrainWait = 50 * time.Millisecond

// fail poisons every blocked and future exchange with err once the sentinel
// is gone, unless the session is closing deliberately. A reply the sentinel
// wrote just before it exited — a failed open's answer — is still in the
// carrier, so the receive loop first delivers it and ends at the carrier's
// EOF (which deathVerdict reports as the death), or deathDrainWait passes.
func (t *procCtlTransport) fail(err error) {
	if t.closing.Load() {
		return
	}
	wait := time.NewTimer(deathDrainWait)
	defer wait.Stop()
	select {
	case <-t.mux.RecvDone():
	case <-wait.C:
	}
	if !t.closing.Load() {
		t.mux.Fail(err)
	}
}

// batchStats exposes the mux's command-channel flush amortization to
// Handle.BatchStats.
func (t *procCtlTransport) batchStats() wire.BatchStats { return t.mux.BatchStats() }

// carrierInfo reports which conduit the session actually runs on and, when a
// requested shm carrier was demoted to pipes, the one-shot reason recorded
// at open — surfaced through Handle.Stats so silent fallback is observable.
func (t *procCtlTransport) carrierInfo() (carrier, fallback string) {
	return t.conn.carrier(), t.fallback
}

// dataPlaneStats exposes the session's syscall-economy counters to
// Handle.DataPlaneStats: the carrier's doorbell and descriptor counters and
// response frames decoded per receive wakeup on the mux.
func (t *procCtlTransport) dataPlaneStats() DataPlaneStats {
	s := t.conn.stats()
	s.Carrier, s.CarrierFallback = t.carrierInfo()
	rs := t.mux.RecvStatsSnapshot()
	s.RecvFrames, s.RecvWakeups = rs.Frames, rs.Wakeups
	return s
}

// roundTrip performs one control exchange, bounded by the configured
// per-operation deadline when one is set.
func (t *procCtlTransport) roundTrip(req *wire.Request, dst []byte) (wire.Response, error) {
	return t.exchange(req, dst, t.opTimeout)
}

// exchange performs one control exchange bounded by timeout (0 for none).
func (t *procCtlTransport) exchange(req *wire.Request, dst []byte, timeout time.Duration) (wire.Response, error) {
	if timeout <= 0 {
		resp, err := t.mux.RoundTrip(req, dst)
		return resp, t.deathVerdict(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	resp, err := t.mux.RoundTripContext(ctx, req, dst)
	return resp, t.deathVerdict(err)
}

// deathVerdict upgrades a transport error to ErrSentinelDied once the
// sentinel is known to have exited. The upgrade is needed because pipe EOF
// can win the race against waitpid: the receive loop poisons the mux with
// the EOF first, the first poison sticks, and without this check the
// session would keep reporting a bare EOF for a crash. Deadline expiry is
// left alone — it is the caller's deadline verdict, not a death report.
func (t *procCtlTransport) deathVerdict(err error) error {
	if err == nil || errors.Is(err, ErrSentinelDied) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	if waitErr, dead := t.conn.exited(); dead {
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
	// The close barrier above settled this session's writes. A pipe conn
	// now reaps its sentinel; a lane goes back to its segment, which
	// retires and reaps its sentinel if no other session holds a lane on it
	// and pool does not keep it.
	waitErr := t.conn.Close()
	if rtErr != nil {
		return t.deathVerdict(rtErr)
	}
	if err := wire.ToError(wire.OpClose, resp.Status, resp.Msg); err != nil {
		return err
	}
	return waitErr
}
