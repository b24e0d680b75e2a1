package core

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/shm"
)

// The lane sentinel: one child process serving every session on a lane
// segment. A single intake goroutine drains the command queue and
// demultiplexes records by lane into per-lane byte queues; each lane then
// runs serveSession against its own handler, so the per-session protocol —
// the open handshake, barriers, write ordering, deferred errors — is
// byte-for-byte the one a pipe sentinel speaks.

// Child-side descriptor numbers of the inherited segment files, after the
// three pipes (fds 3, 4, 5): the mapped segment, then the four doorbells in
// shm.MPSCSegment.ChildFiles order.
const (
	childFDShmSeg   = 6
	childFDShmBells = 7 // four bells: fds 7, 8, 9, 10
)

// attachChildMPSC maps the segment a parent advertised via envShmLanes from
// the inherited descriptors.
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
// write payloads, split exactly the way a pipe sentinel sees its control
// pipe and data-in pipe.
type laneStreams struct {
	cmdQ  *byteQueue
	dataQ *byteQueue
}

func (l *laneStreams) closeBoth() {
	l.cmdQ.close(nil)
	l.dataQ.close(nil)
}

// runLaneChild is the sentinel body for a lane-serving child. It attaches
// the shared segment, then demultiplexes the command queue until the parent
// closes the segment or the watchdog fires. It announces nothing: each
// session's OpOpen handshake, bounded by the parent's handshakeTimeout,
// proves the child booted.
func runLaneChild(openProgram func() (Handler, error), ctrl *os.File, o sessionOptions) error {
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
					serveLane(seg, lane, l, openProgram, o)
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
			break // segment closed (parent retired it or died) or corrupt
		}
	}
	for _, l := range lanes {
		l.closeBoth()
	}
	wg.Wait()
	return nil
}

// serveLane runs one lane's session, then sends the reply-EOS that marks the
// lane quiesced. The EOS rides the same producer path as the responses, so
// it is ordered after every reply of the session.
func serveLane(seg *shm.MPSCSegment, lane uint16, l *laneStreams, open func() (Handler, error), o sessionOptions) {
	defer seg.Reply().SendEOS(lane)
	if err := serveSession(l.cmdQ, l.dataQ, seg.Reply().Producer(lane, shm.RecordFrame), open, o); err != nil {
		fmt.Fprintf(os.Stderr, "af lane sentinel: lane %d: %v\n", lane, err)
	}
}
