package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"

	"repro/internal/shm"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Child-side file descriptors, in the order ipc.ChannelFiles passes them.
const (
	childFDRead  = 3 // application data flowing in (our "stdin" pipe)
	childFDWrite = 4 // data/responses flowing back to the application
	childFDCtrl  = 5 // control commands (process-plus-control only)
)

// RunChildIfRequested turns the current process into a sentinel if it was
// spawned as one (the environment marker is set). Binaries that can host
// process-strategy sentinels — including test binaries, via TestMain — must
// call this before doing anything else; it never returns in a child.
func RunChildIfRequested() {
	if os.Getenv(envChildMarker) == "" {
		return
	}
	if err := runChild(); err != nil {
		fmt.Fprintln(os.Stderr, "af sentinel:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// runChild loads the session description from the environment, opens the
// program when the session asks for it, and serves until the application
// closes the file.
func runChild() error {
	manifestPath := os.Getenv(envManifest)
	if manifestPath == "" {
		return errors.New("no manifest in environment")
	}
	strategy, err := ParseStrategy(os.Getenv(envStrategy))
	if err != nil {
		return err
	}
	m, err := vfs.Load(manifestPath)
	if err != nil {
		return fmt.Errorf("load manifest: %w", err)
	}
	o, err := parseSessionOptions(m)
	if err != nil {
		return err
	}
	program, err := LookupProgram(m.Program.Name)
	if err != nil {
		return err
	}
	openProgram := func() (Handler, error) {
		h, oerr := program.Open(&Env{Path: manifestPath, Manifest: m})
		if oerr != nil {
			return nil, fmt.Errorf("open program %q: %w", m.Program.Name, oerr)
		}
		return h, nil
	}

	in, err := inheritPipe(childFDRead, "af-data-in")
	if err != nil {
		return err
	}
	out, err := inheritPipe(childFDWrite, "af-data-out")
	if err != nil {
		return err
	}

	switch strategy {
	case StrategyProcess:
		handler, err := openProgram()
		if err != nil {
			return err
		}
		return serveStream(handler, in, out)
	case StrategyProcCtl:
		ctrl, err := inheritPipe(childFDCtrl, "af-ctrl")
		if err != nil {
			return err
		}
		if os.Getenv(envShmLanes) != "" {
			// Lane sentinel: serve every lane of the inherited segment, each
			// lane a session of its own.
			return runLaneChild(openProgram, ctrl, o)
		}
		// Drain-mode intake: one read syscall per wakeup pulls every command
		// frame the control pipe has ready.
		cmds, _ := wire.WrapDrain(ctrl)
		return serveSession(cmds, in, out, openProgram, o)
	default:
		return fmt.Errorf("strategy %v cannot run as a subprocess", strategy)
	}
}

// inheritPipe wraps a pipe descriptor the sentinel inherited. os/exec hands
// descriptors over in blocking mode, and a file over a blocking descriptor
// is read with plain read(2) calls that hold the process's P while they
// wait, so the worker an intake goroutine just queued a request to runs only
// once sysmon retakes the P. A nonblocking descriptor is registered with the
// netpoller instead: a waiting reader parks its goroutine, not the P.
// Setting the flag in the child alone is safe for pipes: once the parent has
// closed its copies of the child ends (ipc.ChannelFiles.CloseChildEnds),
// only the child holds these open file descriptions. It fails with EBADF on
// a descriptor that was not inherited.
func inheritPipe(fd int, name string) (*os.File, error) {
	if err := syscall.SetNonblock(fd, true); err != nil {
		return nil, fmt.Errorf("sentinel pipe %s (fd %d) not inherited: %w", name, fd, err)
	}
	return os.NewFile(uintptr(fd), name), nil
}

// serveSession serves one procctl session on either carrier: it answers the
// OpOpen handshake with the outcome of opening the program, then runs
// serveControl. A fresh frame reader is safe for the handshake: wire.Reader
// never reads ahead of the current frame. It returns nil when the peer left
// and when the program failed to open, which the answer reported; any other
// error is the caller's to report.
func serveSession(cmds, data io.Reader, resps io.Writer, open func() (Handler, error), o sessionOptions) error {
	reqs := wire.NewReader(cmds)
	req, _, err := reqs.ReadRequestHeader()
	if errors.Is(err, io.EOF) {
		return nil // the session went away unused
	}
	if err == nil {
		err = reqs.DiscardPayload()
	}
	if err != nil {
		return fmt.Errorf("open handshake: %w", err)
	}
	w := wire.NewWriter(resps)
	if req.Op != wire.OpOpen {
		err := fmt.Errorf("open handshake: unexpected %s before open", req.Op)
		w.WriteResponse(&wire.Response{Seq: req.Seq, Status: wire.StatusError, Msg: err.Error()})
		return err
	}
	handler, oerr := open()
	resp := wire.Response{Seq: req.Seq}
	resp.Status, resp.Msg = wire.FromError(oerr)
	if werr := w.WriteResponse(&resp); werr != nil {
		if handler != nil {
			handler.Close()
		}
		return fmt.Errorf("open handshake reply: %w", werr)
	}
	if oerr != nil {
		return nil
	}
	err = serveControl(handler, data, resps, cmds, o)
	if errors.Is(err, io.EOF) || errors.Is(err, shm.ErrClosed) {
		return nil
	}
	return err
}

// serveStream is the plain-process sentinel loop, the shape of the paper's
// Figure 2 null filter: one thread streams session content to the
// application, another consumes the application's write stream. Read and
// write positions advance independently from zero; there is no control
// channel to reposition either. Each stream is strictly ordered — the
// strategy's contract — so the two goroutines stay sequential; they go
// through the dispatcher only so the reader and writer serialize against
// each other at the handler boundary.
func serveStream(handler Handler, in io.ReadCloser, out io.WriteCloser) error {
	d := newDispatcher(handler)
	var wg sync.WaitGroup
	errCh := make(chan error, 2)

	wg.Add(1)
	go func() { // supply application reads
		defer wg.Done()
		defer out.Close()
		buf := make([]byte, 32*1024)
		var off int64
		for {
			n, rerr := d.readAt(buf, off)
			if n > 0 {
				if _, werr := out.Write(buf[:n]); werr != nil {
					return // application stopped reading
				}
				off += int64(n)
			}
			if rerr != nil {
				if !errors.Is(rerr, io.EOF) {
					errCh <- fmt.Errorf("stream read: %w", rerr)
				}
				return
			}
			if n == 0 {
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // consume application writes
		defer wg.Done()
		buf := make([]byte, 32*1024)
		var off int64
		for {
			n, rerr := in.Read(buf)
			if n > 0 {
				if _, werr := d.writeAt(buf[:n], off); werr != nil {
					errCh <- fmt.Errorf("stream write: %w", werr)
					return
				}
				off += int64(n)
			}
			if rerr != nil {
				return // EOF: application closed its end
			}
		}
	}()

	wg.Wait()
	close(errCh)
	var first error
	for err := range errCh {
		if first == nil {
			first = err
		}
	}
	if cerr := d.closeHandler(); first == nil {
		first = cerr
	}
	return first
}

// controlWorkers is the size of the procctl sentinel's serving pool. Queued
// operations (reads and metadata) execute on the workers, so framing, pipe
// writes, and prefetch fills for one request overlap the handler call of the
// next — the server half of the client's Seq-pipelined mux.
const controlWorkers = 8

// ctrlServer is the shared state of one serveControl session.
type ctrlServer struct {
	d        *dispatcher
	prefetch *prefetcher

	// resps group-commits response frames onto the data-out pipe: workers
	// finishing concurrently share one vectored write instead of queueing on
	// a mutex for one syscall each. WriteResponse returns only after the
	// flush carrying the frame, so pooled payload buffers release safely.
	resps *wire.BatchWriter

	failMu  sync.Mutex
	failErr error // first response-channel failure, reported by any worker
}

// writeResp frames one response onto the shared data-out pipe. A transport
// failure is recorded so the intake loop stops; only the first one counts.
func (s *ctrlServer) writeResp(resp *wire.Response) {
	if err := s.resps.WriteResponse(resp); err != nil {
		s.failMu.Lock()
		if s.failErr == nil {
			s.failErr = fmt.Errorf("response channel: %w", err)
		}
		s.failMu.Unlock()
	}
}

// failed reports the first recorded response-channel failure, if any.
func (s *ctrlServer) failed() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}

// serve handles one queued (non-write, non-barrier) operation on a worker.
func (s *ctrlServer) serve(req *wire.Request) {
	var resp wire.Response
	release := releaseNone
	fromWindow := false
	if req.Op == wire.OpRead {
		if r, ok := s.prefetch.serve(req, &resp); ok {
			// Served from the read-ahead window without touching the handler.
			release, fromWindow = r, true
		}
	}
	if !fromWindow {
		resp, release = s.d.dispatch(req, nil)
		if req.Op == wire.OpTruncate {
			s.prefetch.invalidate()
		}
	}
	served := len(resp.Data)
	eof := resp.Status == wire.StatusEOF
	s.writeResp(&resp)
	release()
	if req.Op == wire.OpRead {
		// Record the access and extend the window while the application is
		// busy consuming this block; the fill runs on this worker, off the
		// reply's critical path.
		s.prefetch.afterRead(req.Off, served, int(req.N), eof)
	}
}

// serveControl is the process-plus-control sentinel loop: an intake thread
// blocks on the control channel, pulls write payloads off the
// data-in pipe, and fans every other command out to a small worker pool that
// ships responses (with any read data) back on the data-out pipe — out of
// order when operations overlap, correlated by Seq. Writes are not
// acknowledged; they execute on the intake thread before the next command is
// read, so a client that writes then reads observes its write, and write
// failures are carried to the next sync/close response. Sync and close are
// barriers: the intake thread drains the pool before dispatching them, so
// every earlier operation's effects — and any deferred write error — are
// settled in the response.
//
// With readAhead (the default), the sentinel anticipates sequential reads
// (§4.2: "the sentinel process might choose to eagerly inject data into the
// read pipe (anticipating read requests)"): an adaptive window grows from
// one block to prefetchMaxBlocks on confirmed sequential access, serving
// following reads without touching the handler on the critical path. With
// writeBehind, adjacent small writes coalesce into one backing WriteAt,
// flushed on sync/close barriers and overlapping reads.
func serveControl(handler Handler, in io.Reader, out io.Writer, ctrl io.Reader, opts sessionOptions) error {
	reqs := wire.NewReader(ctrl)
	s := &ctrlServer{d: newDispatcher(handler), resps: wire.NewBatchWriter(out, nil)}
	if opts.writeBehind {
		s.d.enableWriteBehind()
	}
	if opts.readAhead {
		// Fills read through the dispatcher, so they serialize with the
		// handler's other callers and observe coalesced writes.
		s.prefetch = newPrefetcher(s.d.readAt, false)
	}

	// queued is one pooled operation: the request plus the release of the
	// pooled buffer holding its payload, invoked once the worker is done.
	type queued struct {
		req     wire.Request
		release func()
	}
	work := make(chan *queued, controlWorkers)
	var workers sync.WaitGroup
	var inflight sync.WaitGroup // operations queued but not yet answered
	workers.Add(controlWorkers)
	for i := 0; i < controlWorkers; i++ {
		go func() {
			defer workers.Done()
			for q := range work {
				s.serve(&q.req)
				q.release()
				inflight.Done()
			}
		}()
	}
	shutdown := func() {
		close(work)
		workers.Wait()
		s.d.closeHandler()
	}

	// pendingWriteErr is intake-thread-local: writes, sync, and close all
	// dispatch on this thread, so no lock guards it.
	var pendingWriteErr error
	payload := make([]byte, 0, 64*1024)

	for {
		if err := s.failed(); err != nil {
			// A worker lost the response channel: application vanished.
			shutdown()
			return err
		}
		req, payloadLen, err := reqs.ReadRequestHeader()
		if err != nil {
			// Control channel gone: application vanished without OpClose.
			shutdown()
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("control channel: %w", err)
		}

		switch req.Op {
		case wire.OpWrite:
			n := int(req.N)
			if n < 0 || n > wire.MaxPayload {
				// The announced payload can't be consumed, so the data pipe
				// is desynchronized from here on: every later payload would
				// be misattributed. Terminal, not a deferred write error.
				shutdown()
				return fmt.Errorf("write command announced bad payload size %d: data channel desynchronized", n)
			}
			// Write payloads travel on the data-in pipe, not the control
			// frame, and land in an intake-local scratch.
			if cap(payload) < n {
				payload = make([]byte, n)
			}
			if _, err := io.ReadFull(in, payload[:n]); err != nil {
				shutdown()
				return fmt.Errorf("write payload: %w", err)
			}
			wreq := req
			wreq.Data = payload[:n]
			resp, release := s.d.dispatch(&wreq, nil)
			release()
			if werr := wire.ToError(wire.OpWrite, resp.Status, resp.Msg); werr != nil && pendingWriteErr == nil {
				pendingWriteErr = werr
			}
			s.prefetch.invalidate() // written content may overlap the window
			continue                // deliberately unacknowledged

		case wire.OpSync, wire.OpClose:
			if err := reqs.DiscardPayload(); err != nil {
				shutdown()
				return fmt.Errorf("control channel: %w", err)
			}
			inflight.Wait() // barrier: settle every outstanding operation
			resp, release := s.d.dispatch(&req, nil)
			// Deferred write failures surface on the synchronous barrier.
			if resp.Status == wire.StatusOK && pendingWriteErr != nil {
				resp.Status, resp.Msg = wire.FromError(pendingWriteErr)
				pendingWriteErr = nil
			}
			s.writeResp(&resp)
			release()
			if req.Op == wire.OpClose {
				shutdown()
				return nil
			}

		default:
			// Queue for the pool, landing any control payload straight in a
			// pooled buffer the worker releases after serving. A full pool
			// exerts backpressure on intake — writes behind it in the
			// control stream stay correctly ordered anyway, since they
			// would dispatch on this thread.
			qreq := req
			release := releaseNone
			if payloadLen > 0 {
				buf, rel := wire.GetBuf(payloadLen)
				if err := reqs.ReadPayload(buf); err != nil {
					rel()
					shutdown()
					return fmt.Errorf("control channel: %w", err)
				}
				qreq.Data, release = buf, rel
			}
			inflight.Add(1)
			work <- &queued{req: qreq, release: release}
		}
	}
}
