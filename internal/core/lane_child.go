package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/shm"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// The lane sentinel: one child process serving every session multiplexed on
// a shared MPSC segment. A single intake goroutine drains the command queue
// and demultiplexes records by lane into per-lane byte queues; each lane
// then runs the ordinary serveControl loop against its own handler, so the
// per-session protocol — barriers, write ordering, deferred errors — is
// byte-for-byte the one a dedicated sentinel speaks.

// attachChildMPSC maps the shared segment a parent advertised via
// envShmLanes from the inherited descriptors (same slots as the classic
// segment: fd 6 plus four doorbells).
func attachChildMPSC() (*shm.MPSCSegment, error) {
	segFile := os.NewFile(childFDShmSeg, "af-shm-seg")
	if segFile == nil {
		return nil, fmt.Errorf("core: shm segment fd not inherited")
	}
	bells := make([]*os.File, 4)
	for i := range bells {
		bells[i] = os.NewFile(uintptr(childFDShmBells+i), "af-shm-doorbell")
	}
	seg, err := shm.AttachMPSC(segFile, bells)
	if err != nil {
		return nil, fmt.Errorf("core: attach shm lane segment: %w", err)
	}
	return seg, nil
}

// laneStreams is one lane's demultiplexed intake: command frames and posted
// write payloads, split exactly the way a dedicated sentinel sees its
// control pipe and data-in pipe.
type laneStreams struct {
	cmdQ  *byteQueue
	dataQ *byteQueue
}

func (l *laneStreams) closeBoth() {
	l.cmdQ.close(nil)
	l.dataQ.close(nil)
}

// runLaneChild is the sentinel body for a lane-serving child. It attaches
// the shared segment, announces readiness on the data-out pipe (the same
// beacon a warm-pool child sends), then demultiplexes the command queue
// until the parent closes the segment or the watchdog fires.
func runLaneChild(m vfs.Manifest, openProgram func() (Handler, error), out, ctrl *os.File) error {
	seg, err := attachChildMPSC()
	if err != nil {
		return err
	}
	defer seg.Close()
	// Parent liveness: the control pipe carries no frames on the lane plane;
	// its EOF means the parent is gone, and closing the segment unparks the
	// intake loop below with a terminal error.
	go func() {
		var buf [1]byte
		ctrl.Read(buf[:])
		seg.Close()
	}()
	if err := wire.NewWriter(out).WriteResponse(&wire.Response{Status: wire.StatusOK}); err != nil {
		return fmt.Errorf("lane ready beacon: %w", err)
	}

	opts := ctrlOptions{
		readAhead:   m.Params["readahead"] != "false",
		writeBehind: m.Params["writebehind"] == "true",
	}

	lanes := make(map[uint16]*laneStreams)
	var wg sync.WaitGroup
	cmd := seg.Cmd()
	for {
		err := cmd.Drain(func(lane uint16, kind shm.RecordKind, payload []byte) {
			l := lanes[lane]
			if kind == shm.RecordEOS {
				// Session gone. End the lane's streams; its server finishes
				// and answers with the reply-EOS that lets the parent reuse
				// the lane. A lane that never started gets the reply-EOS
				// directly, so it cannot park in draining forever.
				if l != nil {
					l.closeBoth()
					delete(lanes, lane)
				} else {
					seg.Reply().SendEOS(lane)
				}
				return
			}
			if l == nil {
				l = &laneStreams{cmdQ: newByteQueue(), dataQ: newByteQueue()}
				lanes[lane] = l
				wg.Add(1)
				go func(lane uint16, l *laneStreams) {
					defer wg.Done()
					serveLane(seg, lane, l, openProgram, opts)
				}(lane, l)
			}
			switch kind {
			case shm.RecordFrame:
				l.cmdQ.write(payload)
			case shm.RecordData:
				l.dataQ.write(payload)
			}
		})
		if err != nil {
			break // segment closed: parent drained the plane or died
		}
	}
	for _, l := range lanes {
		l.closeBoth()
	}
	wg.Wait()
	return nil
}

// serveLane runs one session: the OpOpen handshake (mirroring the warm-pool
// rebind — open the program, answer with the outcome), then the standard
// serveControl loop over the lane's demultiplexed streams, and finally the
// reply-EOS that marks the lane quiesced. The EOS rides the same producer
// path as the responses, so it is ordered after every reply of the session.
func serveLane(seg *shm.MPSCSegment, lane uint16, l *laneStreams, open func() (Handler, error), opts ctrlOptions) {
	defer seg.Reply().SendEOS(lane)
	resps := seg.Reply().Producer(lane, shm.RecordFrame)
	// A fresh frame reader is safe here for the same reason as the pool
	// handshake: wire.Reader never reads ahead, so serveControl's own reader
	// resumes at the next frame boundary.
	reqs := wire.NewReader(l.cmdQ)
	req, _, err := reqs.ReadRequestHeader()
	if err != nil {
		return // EOF before open: the session was released unused
	}
	if err := reqs.DiscardPayload(); err != nil {
		return
	}
	w := wire.NewWriter(resps)
	if req.Op != wire.OpOpen {
		w.WriteResponse(&wire.Response{Seq: req.Seq, Status: wire.StatusError,
			Msg: fmt.Sprintf("lane handshake: unexpected %s before open", req.Op)})
		return
	}
	handler, oerr := open()
	resp := wire.Response{Seq: req.Seq, Status: wire.StatusOK}
	if oerr != nil {
		resp.Status, resp.Msg = wire.FromError(oerr)
		if resp.Status == wire.StatusOK {
			resp.Status = wire.StatusError
		}
	}
	if werr := w.WriteResponse(&resp); werr != nil || oerr != nil {
		if handler != nil {
			handler.Close()
		}
		return
	}
	if err := serveControl(handler, l.dataQ, resps, l.cmdQ, opts); err != nil &&
		!errors.Is(err, io.EOF) && !errors.Is(err, shm.ErrClosed) {
		fmt.Fprintf(os.Stderr, "af lane sentinel: lane %d: %v\n", lane, err)
	}
}
