package core

import (
	"context"
	"errors"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// newTestProcCtl spawns a real procctl sentinel subprocess for a fresh
// passthrough active file (the test binary re-executes itself as the child;
// see TestMain in core_test.go).
func newTestProcCtl(t *testing.T, params map[string]string) *procCtlTransport {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  params,
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	m, err := vfs.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newProcCtlTransport(path, m, mustOptions(t, m))
	if err != nil {
		t.Fatalf("newProcCtlTransport: %v", err)
	}
	return tr
}

// laneOf returns the lane tr runs on, or nil when it runs on pipes.
func laneOf(tr *procCtlTransport) *laneConn {
	c, _ := tr.conn.(*laneConn)
	return c
}

// sentinelOf returns the sentinel serving tr, on either carrier.
func sentinelOf(tr *procCtlTransport) *sentinelProc {
	if c := laneOf(tr); c != nil {
		return c.ls.proc
	}
	return tr.conn.(*pipeConn).proc
}

// TestProcCtlSlowOpenIsNotCutShort: a program whose open outlasts
// handshakeTimeout still opens. Over pipes the handshake waits like any
// other exchange; over a lane it gives up after handshakeTimeout and the
// session falls back to pipes, which then wait.
func TestProcCtlSlowOpenIsNotCutShort(t *testing.T) {
	saved := handshakeTimeout
	handshakeTimeout = 200 * time.Millisecond
	t.Cleanup(func() { handshakeTimeout = saved })
	for _, carrier := range []string{"pipe", "shm"} {
		t.Run(carrier, func(t *testing.T) {
			if carrier == "shm" {
				requireShm(t)
				t.Cleanup(DrainSharedSegments)
			}
			path := filepath.Join(t.TempDir(), "slow.af")
			if err := vfs.Create(path, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "test:slowopen"},
				Cache:   "memory",
				Params:  map[string]string{"transport": carrier, "opendelay": "600ms"},
			}); err != nil {
				t.Fatalf("vfs.Create: %v", err)
			}
			m, err := vfs.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := newProcCtlTransport(path, m, mustOptions(t, m))
			if err != nil {
				t.Fatalf("open with a slow program: %v", err)
			}
			if carrier == "shm" && (laneOf(tr) != nil || tr.fallback == "") {
				t.Errorf("shm session: lane %v fallback %q, want a pipe fallback with its reason", laneOf(tr), tr.fallback)
			}
			if _, err := tr.size(); err != nil {
				t.Errorf("size: %v", err)
			}
			if err := tr.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
	}
}

// TestProcCtlSentinelDeathReleasesExchanges kills the sentinel subprocess
// mid-session: every concurrent exchange must return an error promptly —
// no indefinite block — and the transport must still close cleanly.
func TestProcCtlSentinelDeathReleasesExchanges(t *testing.T) {
	tr := newTestProcCtl(t, map[string]string{"readahead": "false"})

	if _, err := tr.size(); err != nil {
		t.Fatalf("healthy size: %v", err)
	}

	if err := sentinelOf(tr).cmd.Process.Kill(); err != nil {
		t.Fatalf("kill sentinel: %v", err)
	}

	// Ops issued around the death window must all fail, and fast. Some race
	// the pipe EOF, some land after the monitor poisoned the mux; none may
	// hang.
	const callers = 4
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func() {
			_, err := tr.size()
			errs <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("exchange succeeded against a dead sentinel")
			}
		case <-deadline:
			t.Fatal("exchange blocked after sentinel death: waiter never released")
		}
	}

	// Once the monitor has reaped the death, the error names it.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		_, err := tr.size()
		if errors.Is(err, ErrSentinelDied) {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("post-death error never became ErrSentinelDied: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- tr.close() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("close hung after sentinel death")
	}
}

// TestProcCtlOpTimeoutOnStalledSentinel stops (SIGSTOP) the sentinel — alive
// but unresponsive, the hung-server case — and verifies the configured
// per-operation deadline bounds the wait, then that the session recovers in
// sync once the sentinel resumes: the stale response is discarded and a
// fresh exchange succeeds.
func TestProcCtlOpTimeoutOnStalledSentinel(t *testing.T) {
	tr := newTestProcCtl(t, map[string]string{
		"readahead": "false",
		"optimeout": "200ms",
	})
	defer tr.close()

	if _, err := tr.size(); err != nil {
		t.Fatalf("healthy size: %v", err)
	}

	if err := sentinelOf(tr).cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatalf("stop sentinel: %v", err)
	}

	start := time.Now()
	_, err := tr.size()
	waited := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled size err = %v, want DeadlineExceeded", err)
	}
	if waited > 3*time.Second {
		t.Fatalf("deadline took %v to fire; wait effectively unbounded", waited)
	}

	if err := sentinelOf(tr).cmd.Process.Signal(syscall.SIGCONT); err != nil {
		t.Fatalf("resume sentinel: %v", err)
	}

	// The resumed sentinel first answers the abandoned exchange; the mux
	// must skip it and deliver the fresh response to the fresh caller.
	recoverDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := tr.size(); err == nil {
			break
		}
		if time.Now().After(recoverDeadline) {
			t.Fatal("session never recovered after sentinel resumed")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDispatchContainsHandlerPanic: a panicking program must produce an
// error response (and keep the lock released), not unwind the sentinel.
func TestDispatchContainsHandlerPanic(t *testing.T) {
	d := newDispatcher(&panicHandler{})
	read := wire.Request{Seq: 1, Op: wire.OpRead, N: 4}
	resp, release := d.dispatch(&read, nil)
	release()
	if resp.Status == wire.StatusOK {
		t.Fatal("panicking handler reported success")
	}
	// The dispatcher lock must have been released: a second dispatch (on an
	// op whose handler method does not panic) completes rather than
	// deadlocking behind a leaked lock.
	done := make(chan struct{})
	go func() {
		size := wire.Request{Seq: 2, Op: wire.OpSize}
		resp2, rel2 := d.dispatch(&size, nil)
		rel2()
		if resp2.Status != wire.StatusOK {
			t.Errorf("size after contained panic = %v", resp2.Status)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("dispatch deadlocked after handler panic: lock leaked")
	}
}

type panicHandler struct{}

func (panicHandler) ReadAt(p []byte, off int64) (int, error)  { panic("program bug") }
func (panicHandler) WriteAt(p []byte, off int64) (int, error) { panic("program bug") }
func (panicHandler) Size() (int64, error)                     { return 0, nil }
func (panicHandler) Truncate(int64) error                     { return nil }
func (panicHandler) Sync() error                              { return nil }
func (panicHandler) Close() error                             { return nil }

// deathFirstConn holds the mux's receive loop off the response stream until
// the sentinel's death hook has fired: the interleaving in which the death
// report reaches the session before the last reply the sentinel wrote.
type deathFirstConn struct {
	sessionConn
	fired chan struct{}
	once  sync.Once
}

func (c *deathFirstConn) Resp() io.Reader { return heldReader{c.sessionConn.Resp(), c.fired} }

func (c *deathFirstConn) setOnFail(f func(error)) {
	c.sessionConn.setOnFail(func(err error) {
		c.once.Do(func() { close(c.fired) })
		f(err)
	})
}

// heldReader blocks every Read until release is closed.
type heldReader struct {
	r       io.Reader
	release <-chan struct{}
}

func (h heldReader) Read(p []byte) (int, error) {
	<-h.release
	return h.r.Read(p)
}

// TestProcCtlOpenErrorSurvivesDeathReport: a sentinel whose program cannot
// open writes the error reply and exits. When waitpid reports the death
// before the receive loop has read that reply, Open must still fail with the
// program's error, not with a bare sentinel death.
func TestProcCtlOpenErrorSurvivesDeathReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: "127.0.0.1:1", Path: "obj"}, // nothing listens
	}); err != nil {
		t.Fatal(err)
	}
	m, err := vfs.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := newPipeConn(path, m)
	if err != nil {
		t.Fatal(err)
	}
	conn := &deathFirstConn{sessionConn: pc, fired: make(chan struct{})}
	tr, rtErr, openErr := openSession(conn, mustOptions(t, m), "", 0)
	if tr != nil {
		tr.close()
		t.Fatal("open succeeded with an unreachable source")
	}
	if rtErr != nil {
		t.Fatalf("handshake lost the sentinel's reply: %v", rtErr)
	}
	if !strings.Contains(openErr.Error(), `open program "passthrough"`) {
		t.Errorf("open error = %v, want the program's open error", openErr)
	}
}
