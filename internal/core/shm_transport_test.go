package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject/leaktest"
	"repro/internal/shm"
	"repro/internal/vfs"
)

// requireShm skips on platforms where the shm carrier compiles out.
func requireShm(t *testing.T) {
	t.Helper()
	if !shm.Supported() {
		t.Skip("shm transport unsupported on this platform")
	}
}

// mustOptions parses m's session params, failing the test on a bad one.
func mustOptions(t *testing.T, m vfs.Manifest) sessionOptions {
	t.Helper()
	o, err := parseSessionOptions(m)
	if err != nil {
		t.Fatalf("parseSessionOptions: %v", err)
	}
	return o
}

// defaultOptions is what parseSessionOptions returns for a manifest with no
// session params.
var defaultOptions = sessionOptions{transport: "pipe", lanes: 1, readAhead: true}

// withOptions returns defaultOptions changed by f.
func withOptions(f func(*sessionOptions)) sessionOptions {
	o := defaultOptions
	f(&o)
	return o
}

// optionsCase is one row of a parseSessionOptions table.
type optionsCase struct {
	params  map[string]string
	want    sessionOptions
	wantErr string // substring of the error; "" expects success
}

// TestSessionOptions pins the defaults and the data-plane switches.
func TestSessionOptions(t *testing.T) {
	checkOptions(t, []optionsCase{
		{params: nil, want: defaultOptions},
		{params: map[string]string{"readahead": "false"}, want: withOptions(func(o *sessionOptions) { o.readAhead = false })},
		{params: map[string]string{"readahead": "true"}, want: defaultOptions},
		{params: map[string]string{"writebehind": "true"}, want: withOptions(func(o *sessionOptions) { o.writeBehind = true })},
	})
}

// TestTransportParam pins the accepted carriers and the rejection of others.
func TestTransportParam(t *testing.T) {
	checkOptions(t, []optionsCase{
		{params: map[string]string{"transport": ""}, want: defaultOptions},
		{params: map[string]string{"transport": "pipe"}, want: defaultOptions},
		{params: map[string]string{"transport": "shm"}, want: withOptions(func(o *sessionOptions) { o.transport = "shm" })},
		{params: map[string]string{"transport": "carrier-pigeon"}, wantErr: `bad transport param "carrier-pigeon"`},
	})
}

// TestShmLanesParam pins lane-count validation and the transport=shm
// requirement.
func TestShmLanesParam(t *testing.T) {
	checkOptions(t, []optionsCase{
		{params: map[string]string{"transport": "shm", "shmlanes": "16"}, want: withOptions(func(o *sessionOptions) { o.transport, o.lanes = "shm", 16 })},
		{params: map[string]string{"transport": "shm", "shmlanes": "0"}, wantErr: "bad shmlanes param"},
		{params: map[string]string{"transport": "shm", "shmlanes": "-1"}, wantErr: "bad shmlanes param"},
		{params: map[string]string{"transport": "shm", "shmlanes": "abc"}, wantErr: "bad shmlanes param"},
		{params: map[string]string{"transport": "shm", "shmlanes": fmt.Sprint(shm.MaxLanes + 1)}, wantErr: "bad shmlanes param"},
		// Lanes are a sharing discipline for the shm carrier; pipes cannot host them.
		{params: map[string]string{"shmlanes": "4"}, wantErr: "shmlanes=4 requires transport=shm"},
	})
}

// TestPoolParam pins the warm-segment knob: a pool lives on the lane plane,
// so it selects transport=shm when no carrier is named and refuses pipes.
func TestPoolParam(t *testing.T) {
	checkOptions(t, []optionsCase{
		{params: map[string]string{"pool": ""}, want: defaultOptions},
		{params: map[string]string{"pool": "0"}, want: defaultOptions},
		{params: map[string]string{"pool": "0", "transport": "pipe"}, want: defaultOptions},
		{params: map[string]string{"pool": "4"}, want: withOptions(func(o *sessionOptions) { o.transport, o.pool = "shm", 4 })},
		{params: map[string]string{"pool": "2", "shmlanes": "8"}, want: withOptions(func(o *sessionOptions) { o.transport, o.pool, o.lanes = "shm", 2, 8 })},
		{params: map[string]string{"pool": "2", "transport": "pipe"}, wantErr: "pool=2 requires transport=shm, not transport=pipe"},
		{params: map[string]string{"pool": "-1"}, wantErr: "bad pool param"},
		{params: map[string]string{"pool": "two"}, wantErr: "bad pool param"},
	})
}

// TestOpTimeoutParamRejected pins manifest validation of the deadline knob.
func TestOpTimeoutParamRejected(t *testing.T) {
	checkOptions(t, []optionsCase{
		{params: map[string]string{"optimeout": "1500ms"}, want: withOptions(func(o *sessionOptions) { o.opTimeout = 1500 * time.Millisecond })},
		{params: map[string]string{"optimeout": "soon"}, wantErr: "bad optimeout param"},
		{params: map[string]string{"optimeout": "-1s"}, wantErr: "bad optimeout param"},
	})
}

// checkOptions runs parseSessionOptions over each row of cases.
func checkOptions(t *testing.T, cases []optionsCase) {
	t.Helper()
	for _, tc := range cases {
		got, err := parseSessionOptions(vfs.Manifest{Params: tc.params})
		switch {
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%v: err = %v, want one containing %q", tc.params, err, tc.wantErr)
		case tc.wantErr == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.params, err)
		case tc.wantErr == "" && got != tc.want:
			t.Errorf("%v = %+v, want %+v", tc.params, got, tc.want)
		}
	}
}

// TestShmTransportEndToEnd drives a real sentinel subprocess over the shm
// carrier: the session must actually run on a lane, and reads, writes,
// size, sync, and close must behave exactly like the pipe path.
func TestShmTransportEndToEnd(t *testing.T) {
	requireShm(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm"})
	if laneOf(tr) == nil {
		t.Fatalf("transport=shm session came up without a lane: %q", tr.fallback)
	}

	msg := []byte("lane-carried payload, long enough to be uninlined sometimes")
	if n, err := tr.writeAt(msg, 0); err != nil || n != len(msg) {
		t.Fatalf("writeAt = %d, %v", n, err)
	}
	if err := tr.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	got := make([]byte, len(msg))
	if n, err := tr.readAt(got, 0); err != nil || n != len(msg) {
		t.Fatalf("readAt = %d, %v", n, err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	if size, err := tr.size(); err != nil || size != int64(len(msg)) {
		t.Fatalf("size = %d, %v", size, err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShmTransportPipelined hammers one shm session from many goroutines so
// exchanges overlap on the lane — the mux pipeline must stay correlated.
func TestShmTransportPipelined(t *testing.T) {
	requireShm(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm", "readahead": "false"})

	content := make([]byte, 8192)
	for i := range content {
		content[i] = byte(i)
	}
	if _, err := tr.writeAt(content, 0); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	if err := tr.sync(); err != nil {
		t.Fatalf("seed sync: %v", err)
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			buf := make([]byte, 64)
			for i := 0; i < 200; i++ {
				off := int64(((w * 131) + i*64) % (len(content) - 64))
				n, err := tr.readAt(buf, off)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf[:n], content[off:off+int64(n)]) {
					errs <- errors.New("pipelined read returned misattributed bytes")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestShmCloseQuiescesReadAhead: a read at offset 0 starts an asynchronous
// read-ahead fill, and a Close right behind it must let that fill land
// instead of closing the lane under it.
func TestShmCloseQuiescesReadAhead(t *testing.T) {
	requireShm(t)
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
		Params:  map[string]string{"transport": "shm"},
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	if err := os.WriteFile(vfs.DataPath(path), bytes.Repeat([]byte("0123456789abcdef"), 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	// A race-enabled sentinel sleeps a second at exit by default, which
	// would stretch the loop to a quarter of an hour under -race.
	t.Setenv("GORACE", "atexit_sleep_ms=0")
	buf := make([]byte, 4096)
	for i := 0; i < 1000; i++ {
		h, err := Open(path, Options{Strategy: StrategyProcCtl})
		if err != nil {
			t.Fatalf("round %d: Open: %v", i, err)
		}
		if _, err := h.ReadAt(buf, 0); err != nil {
			h.Close()
			t.Fatalf("round %d: ReadAt: %v", i, err)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", i, err)
		}
	}
}

// TestShmSentinelDeathPoisonsAndUnmaps is the chaos criterion over the shm
// carrier: SIGKILL mid-pipeline must fail every exchange with
// ErrSentinelDied (no waiter may block on a queue no one will ever ring),
// close the segment, and leak no goroutines.
func TestShmSentinelDeathPoisonsAndUnmaps(t *testing.T) {
	requireShm(t)
	leaktest.Check(t)
	tr := newTestProcCtl(t, map[string]string{"transport": "shm", "readahead": "false"})

	if _, err := tr.size(); err != nil {
		t.Fatalf("healthy size: %v", err)
	}
	if err := sentinelOf(tr).cmd.Process.Kill(); err != nil {
		t.Fatalf("kill sentinel: %v", err)
	}

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
			t.Fatal("exchange blocked on the lane after sentinel death")
		}
	}

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

	// The death hook must have closed the segment: its queues reject traffic.
	segDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := laneOf(tr).frames.Write([]byte{0}); errors.Is(err, shm.ErrClosed) {
			break
		}
		if time.Now().After(segDeadline) {
			t.Fatal("segment still open after sentinel death")
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

// TestShmCloseRetiresSegment is the lifecycle contract: closing the last
// session on a segment reaps its sentinel and returns the descriptor gauges
// to baseline without any hub drain. With shmlanes=2, closing one of two
// sessions keeps the shared segment serving the other.
func TestShmCloseRetiresSegment(t *testing.T) {
	requireShm(t)
	base := shm.SnapshotFDs()

	tr := newTestProcCtl(t, map[string]string{"transport": "shm"})
	if laneOf(tr) == nil {
		t.Fatalf("transport=shm session came up without a lane: %q", tr.fallback)
	}
	mon := sentinelOf(tr)
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, dead := mon.exited(); !dead {
		t.Fatal("close returned before the sentinel was reaped")
	}
	if now := shm.SnapshotFDs(); now != base {
		t.Fatalf("fd gauges after close = %+v, want baseline %+v", now, base)
	}

	path, m := newLaneManifest(t, 2, nil)
	a, b := openLane(t, path, m), openLane(t, path, m)
	if laneOf(a).ls != laneOf(b).ls {
		t.Fatal("shmlanes=2 placed two sessions on different segments")
	}
	if err := a.close(); err != nil {
		t.Fatalf("close first: %v", err)
	}
	if _, dead := b.conn.exited(); dead {
		t.Fatal("closing one of two sessions reaped the shared sentinel")
	}
	if _, err := b.size(); err != nil {
		t.Fatalf("surviving session: %v", err)
	}
	if now := shm.SnapshotFDs(); now.Segments != base.Segments+1 {
		t.Fatalf("segments with one session left = %d, want %d", now.Segments, base.Segments+1)
	}
	if err := b.close(); err != nil {
		t.Fatalf("close second: %v", err)
	}
	if _, dead := b.conn.exited(); !dead {
		t.Fatal("closing the last session left the sentinel running")
	}
	if now := shm.SnapshotFDs(); now != base {
		t.Fatalf("fd gauges after both closed = %+v, want baseline %+v", now, base)
	}
}

// TestLaneBootOutsideHubLock: the hub lock must not be held while a new
// sentinel boots. A sentinel that never answers (it reads its control pipe,
// which the lane plane never writes, so it stays alive until its segment is
// retired) holds its open in the OpOpen handshake for handshakeTimeout; an
// open of another file must complete in the meantime. The pipe sentinel the
// stuck open then falls back to exits on the first control byte, so that
// open fails at Open rather than returning a session that cannot serve.
func TestLaneBootOutsideHubLock(t *testing.T) {
	requireShm(t)
	t.Cleanup(DrainSharedSegments)
	stuck := filepath.Join(t.TempDir(), "stuck.af")
	if err := vfs.Create(stuck, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough", Exec: "/bin/sh", Args: []string{"-c", "head -c 1 <&5"}},
		Cache:   "memory",
		Params:  map[string]string{"transport": "shm"},
	}); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	m, err := vfs.Load(stuck)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tr  *procCtlTransport
		err error
	}
	o := mustOptions(t, m)
	first := make(chan result, 1)
	go func() {
		tr, err := newProcCtlTransport(stuck, m, o)
		first <- result{tr, err}
	}()
	// Let the first open claim its lane and start waiting on the sentinel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		lanePlane.mu.Lock()
		n := len(lanePlane.segs[stuck])
		lanePlane.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first open never registered its segment")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	tr := newTestProcCtl(t, map[string]string{"transport": "shm"})
	took := time.Since(start)
	select {
	case <-first:
		t.Fatal("the silent sentinel answered its handshake")
	default:
	}
	if laneOf(tr) == nil {
		t.Fatalf("second open fell back to pipes: %q", tr.fallback)
	}
	if took > handshakeTimeout/2 {
		t.Fatalf("second open took %v: it queued behind the first open's boot", took)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close second: %v", err)
	}

	r := <-first
	if r.err == nil || !strings.Contains(r.err.Error(), "sentinel open handshake") {
		t.Fatalf("first open = %v, want its pipe fallback's handshake failure", r.err)
	}
}

// TestPipeTransportHasNoSegment: the default carrier must not take a lane.
func TestPipeTransportHasNoSegment(t *testing.T) {
	base := shm.SnapshotFDs()
	tr := newTestProcCtl(t, nil)
	if laneOf(tr) != nil {
		t.Fatal("pipe-carrier session took a lane")
	}
	if now := shm.SnapshotFDs(); now != base {
		t.Fatalf("pipe-carrier session mapped shm: %+v, baseline %+v", now, base)
	}
	if _, err := tr.size(); err != nil {
		t.Fatalf("size: %v", err)
	}
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
