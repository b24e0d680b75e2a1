package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject/leaktest"
	"repro/internal/shm"
	"repro/internal/vfs"
)

// newLaneManifest creates one lane-plane active file and returns its path
// and manifest; sessions opened from it share MPSC segments. lanes 0 leaves
// transport and shmlanes unset, for extra params that select the plane
// themselves. The hub is drained at cleanup so shared children never
// outlive the test.
func newLaneManifest(t *testing.T, lanes int, extra map[string]string) (string, vfs.Manifest) {
	t.Helper()
	params := map[string]string{}
	if lanes > 0 {
		params["transport"], params["shmlanes"] = "shm", fmt.Sprint(lanes)
	}
	for k, v := range extra {
		params[k] = v
	}
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
	t.Cleanup(DrainSharedSegments)
	return path, m
}

// openLane opens one session on the lane plane and fails the test on any
// demotion: these tests exist to drive the shared plane, not its fallback.
func openLane(t *testing.T, path string, m vfs.Manifest) *procCtlTransport {
	t.Helper()
	tr, err := newProcCtlTransport(path, m, mustOptions(t, m))
	if err != nil {
		t.Fatalf("newProcCtlTransport: %v", err)
	}
	if laneOf(tr) == nil {
		tr.close()
		t.Fatalf("session fell off the lane plane: %q", tr.fallback)
	}
	return tr
}

// TestLaneTransportEndToEnd drives one session over a shared MPSC segment:
// reads, bulk writes (RecordData payloads), size, sync, and close must
// behave exactly like a dedicated sentinel.
func TestLaneTransportEndToEnd(t *testing.T) {
	requireShm(t)
	path, m := newLaneManifest(t, 8, nil)
	tr := openLane(t, path, m)

	payload := make([]byte, 64<<10) // large enough to chunk across records
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if n, err := tr.writeAt(payload, 0); err != nil || n != len(payload) {
		t.Fatalf("writeAt = %d, %v", n, err)
	}
	if err := tr.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got := make([]byte, len(payload))
	if n, err := tr.readAt(got, 0); err != nil || n != len(got) {
		t.Fatalf("readAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("lane round trip corrupted payload")
	}
	if size, err := tr.size(); err != nil || size != int64(len(payload)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	ds := tr.dataPlaneStats()
	if ds.Carrier != "shm" || ds.CarrierFallback != "" {
		t.Fatalf("lane carrier = %q/%q", ds.Carrier, ds.CarrierFallback)
	}
	if ds.SegmentSessions != 1 || ds.SegmentFDs != 5 || ds.DoorbellFDs != 4 {
		t.Fatalf("lane fd stats = %+v", ds)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestLaneSessionsShareSegment is the descriptor-economy criterion: up to
// 256 sessions multiplexed on one shared segment must cost the parent
// exactly one extra segment (five descriptors, four of them doorbells) —
// O(1) fds per segment, not per session — the 257th session exactly one
// more, and everything must return to baseline once the last session
// closes.
func TestLaneSessionsShareSegment(t *testing.T) {
	requireShm(t)
	if testing.Short() {
		t.Skip("256-session sweep in -short mode")
	}
	for _, sessions := range []int{64, 256, 257} {
		t.Run(fmt.Sprint(sessions), func(t *testing.T) { laneSessionsShareSegment(t, sessions) })
	}
}

func laneSessionsShareSegment(t *testing.T, sessions int) {
	const lanes = 256
	base := shm.SnapshotFDs()
	path, m := newLaneManifest(t, lanes, map[string]string{"readahead": "false"})
	o := mustOptions(t, m)

	trs := make([]*procCtlTransport, sessions)
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr, err := newProcCtlTransport(path, m, o)
			if err != nil {
				errs <- err
				return
			}
			trs[i] = tr
			if laneOf(tr) == nil {
				errs <- fmt.Errorf("session %d fell off the lane plane: %q", i, tr.fallback)
				return
			}
			if _, err := tr.size(); err != nil {
				errs <- fmt.Errorf("session %d size: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	segments := int64((sessions + lanes - 1) / lanes)
	now := shm.SnapshotFDs()
	if got := now.Segments - base.Segments; got != segments {
		t.Fatalf("%d lane sessions mapped %d segments, want %d", sessions, got, segments)
	}
	if got := now.DoorbellFDs - base.DoorbellFDs; got != 4*segments {
		t.Fatalf("%d lane sessions pinned %d doorbell fds, want %d", sessions, got, 4*segments)
	}
	if got := now.LaneSessions - base.LaneSessions; got != int64(sessions) {
		t.Fatalf("lane session gauge = %d, want %d", got, sessions)
	}
	perSegment := make(map[*laneSegment]int)
	for _, tr := range trs {
		perSegment[laneOf(tr).ls]++
	}
	for _, tr := range trs {
		ds := tr.dataPlaneStats()
		if ds.SegmentFDs != 5 || ds.DoorbellFDs != 4 || ds.SegmentSessions != perSegment[laneOf(tr).ls] {
			t.Fatalf("session stats = %+v, want 5 segment fds, 4 doorbells, %d sessions", ds, perSegment[laneOf(tr).ls])
		}
	}
	for _, tr := range trs {
		if tr == nil {
			continue
		}
		if err := tr.close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	end := shm.SnapshotFDs()
	if end != base {
		t.Fatalf("fd gauges did not return to baseline: base %+v, end %+v", base, end)
	}
}

// TestLaneSessionCloseDoesNotPoisonSiblings closes one of N sessions sharing
// a segment mid-traffic; the siblings' pipelines must keep answering, and a
// successor session must be able to reuse the quiesced lane on the same
// segment (no new descriptors).
func TestLaneSessionCloseDoesNotPoisonSiblings(t *testing.T) {
	requireShm(t)
	path, m := newLaneManifest(t, 8, map[string]string{"readahead": "false"})

	const sessions = 4
	trs := make([]*procCtlTransport, sessions)
	for i := range trs {
		trs[i] = openLane(t, path, m)
		seed := []byte(fmt.Sprintf("session %d content", i))
		if _, err := trs[i].writeAt(seed, 0); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if err := trs[i].sync(); err != nil {
			t.Fatalf("seed sync %d: %v", i, err)
		}
	}
	before := shm.SnapshotFDs()

	stop := make(chan struct{})
	errs := make(chan error, sessions-1)
	var wg sync.WaitGroup
	for i := 1; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("session %d content", i))
			buf := make([]byte, len(want))
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				n, err := trs[i].readAt(buf, 0)
				if err != nil {
					errs <- fmt.Errorf("sibling %d read: %w", i, err)
					return
				}
				if !bytes.Equal(buf[:n], want) {
					errs <- fmt.Errorf("sibling %d read misattributed bytes %q", i, buf[:n])
					return
				}
			}
		}(i)
	}
	// Retire session 0 while the siblings hammer the shared queues.
	if err := trs[0].close(); err != nil {
		t.Fatalf("close session 0: %v", err)
	}
	// A successor must come up on the same segment.
	succ := openLane(t, path, m)
	if laneOf(succ).ls != laneOf(trs[1]).ls {
		t.Fatal("successor landed on a new segment")
	}
	if _, err := succ.size(); err != nil {
		t.Fatalf("successor size: %v", err)
	}
	if now := shm.SnapshotFDs(); now.Segments != before.Segments || now.DoorbellFDs != before.DoorbellFDs {
		t.Fatalf("lane reuse changed segment fds: before %+v, now %+v", before, now)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	succ.close()
	for i := 1; i < sessions; i++ {
		if err := trs[i].close(); err != nil {
			t.Fatalf("close sibling %d: %v", i, err)
		}
	}
}

// TestLaneSentinelDeathFansOut is the chaos criterion for the shared plane:
// SIGKILL of the one sentinel serving N lanes must fail every session's
// exchanges promptly (ErrSentinelDied), and the next open must come up on a
// fresh segment instead of the dead one.
func TestLaneSentinelDeathFansOut(t *testing.T) {
	requireShm(t)
	leaktest.Check(t)
	path, m := newLaneManifest(t, 8, map[string]string{"readahead": "false"})

	const sessions = 3
	trs := make([]*procCtlTransport, sessions)
	for i := range trs {
		trs[i] = openLane(t, path, m)
		if _, err := trs[i].size(); err != nil {
			t.Fatalf("healthy size %d: %v", i, err)
		}
	}
	seg := laneOf(trs[0]).ls
	if err := seg.proc.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill shared sentinel: %v", err)
	}

	for i, tr := range trs {
		waitDeadline := time.Now().Add(5 * time.Second)
		for {
			_, err := tr.size()
			if errors.Is(err, ErrSentinelDied) {
				break
			}
			if err == nil {
				t.Fatalf("session %d exchange succeeded against a dead sentinel", i)
			}
			if time.Now().After(waitDeadline) {
				t.Fatalf("session %d error never became ErrSentinelDied: %v", i, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The hub must retire the dead segment and spawn a fresh one.
	tr := openLane(t, path, m)
	if laneOf(tr).ls == seg {
		t.Fatal("post-death open landed on the dead segment")
	}
	if _, err := tr.size(); err != nil {
		t.Fatalf("size on fresh segment: %v", err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close fresh: %v", err)
	}
	for i, tr := range trs {
		done := make(chan error, 1)
		go func() { done <- tr.close() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("session %d close hung after sentinel death", i)
		}
	}
}

// TestLaneTornTeardown drains the hub while sessions are mid-pipeline: every
// session must fail or finish promptly — nothing may park forever on the
// vanished queues — and no goroutine may leak.
func TestLaneTornTeardown(t *testing.T) {
	requireShm(t)
	leaktest.Check(t)
	path, m := newLaneManifest(t, 8, map[string]string{"readahead": "false"})

	const sessions = 4
	trs := make([]*procCtlTransport, sessions)
	for i := range trs {
		trs[i] = openLane(t, path, m)
		if _, err := trs[i].writeAt([]byte("torn"), 0); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for _, tr := range trs {
		wg.Add(1)
		go func(tr *procCtlTransport) {
			defer wg.Done()
			buf := make([]byte, 4)
			for {
				if _, err := tr.readAt(buf, 0); err != nil {
					return
				}
			}
		}(tr)
	}
	time.Sleep(10 * time.Millisecond) // let the pipelines overlap the drain
	DrainSharedSegments()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("sessions still blocked after hub drain")
	}
	for i, tr := range trs {
		fin := make(chan error, 1)
		go func() { fin <- tr.close() }()
		select {
		case <-fin:
		case <-time.After(10 * time.Second):
			t.Fatalf("session %d close hung after drain", i)
		}
	}
}

// TestTornAdoptionClosesSharedSegment is the torn-handshake drill on a
// shared segment: the lane sentinel is frozen, a second session's OpOpen
// handshake is in flight on it, and the sentinel is killed. The open must
// recover on pipes with the reason recorded, and the torn segment must come
// out fully closed — its queues rejecting traffic, Stats still answering
// after the unmap — with no goroutine leaked.
func TestTornAdoptionClosesSharedSegment(t *testing.T) {
	requireShm(t)
	leaktest.Check(t)
	path, m := newLaneManifest(t, 2, map[string]string{"readahead": "false"})
	o := mustOptions(t, m)
	first := openLane(t, path, m)
	ls := laneOf(first).ls

	if err := syscall.Kill(ls.proc.cmd.Process.Pid, syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP: %v", err)
	}
	type result struct {
		tr  *procCtlTransport
		err error
	}
	opened := make(chan result, 1)
	go func() {
		tr, err := newProcCtlTransport(path, m, o)
		opened <- result{tr, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for claimed, _ := ls.seg.LaneCounts(); claimed < 2; claimed, _ = ls.seg.LaneCounts() {
		if time.Now().After(deadline) {
			t.Fatal("second open never claimed its lane")
		}
		time.Sleep(time.Millisecond)
	}
	if err := syscall.Kill(ls.proc.cmd.Process.Pid, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}

	var second result
	select {
	case second = <-opened:
	case <-time.After(30 * time.Second):
		t.Fatal("open wedged on the torn handshake")
	}
	if second.err != nil {
		t.Fatalf("open after torn handshake: %v", second.err)
	}
	if laneOf(second.tr) != nil || !strings.Contains(second.tr.fallback, "lane open handshake") {
		t.Fatalf("recovered session: lane %v fallback %q, want pipes with the handshake reason",
			laneOf(second.tr), second.tr.fallback)
	}
	if !ls.seg.Closed() {
		t.Fatal("torn segment still open")
	}
	if _, err := laneOf(first).frames.Write([]byte{0}); !errors.Is(err, shm.ErrClosed) {
		t.Fatalf("write on the torn segment: err = %v, want ErrClosed", err)
	}
	_ = ls.seg.Cmd().Stats() // must answer from the detach snapshot, not fault

	if _, err := second.tr.writeAt([]byte("recovered"), 0); err != nil {
		t.Fatalf("writeAt on recovered session: %v", err)
	}
	if err := second.tr.close(); err != nil {
		t.Fatalf("close recovered session: %v", err)
	}
	first.close()
}
