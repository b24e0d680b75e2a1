package core

import (
	"errors"
	"io"
	"testing"

	"repro/internal/wire"
)

// dispatchT runs one dispatch and settles it for test inspection: the
// response payload is copied out of the pooled buffer before release, the way
// a transport ships or copies it before recycling.
func dispatchT(d *dispatcher, req *wire.Request) wire.Response {
	resp, release := d.dispatch(req, nil)
	if len(resp.Data) > 0 {
		resp.Data = append([]byte(nil), resp.Data...)
	}
	release()
	return resp
}

// fakeHandler records calls and returns scripted results.
type fakeHandler struct {
	data      []byte
	syncErr   error
	closed    bool
	truncated int64
}

func (f *fakeHandler) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *fakeHandler) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	if end > int64(len(f.data)) {
		grown := make([]byte, end)
		copy(grown, f.data)
		f.data = grown
	}
	copy(f.data[off:end], p)
	return len(p), nil
}

func (f *fakeHandler) Size() (int64, error) { return int64(len(f.data)), nil }

func (f *fakeHandler) Truncate(n int64) error {
	f.truncated = n
	if n < int64(len(f.data)) {
		f.data = f.data[:n]
	}
	return nil
}

func (f *fakeHandler) Sync() error { return f.syncErr }

func (f *fakeHandler) Close() error {
	f.closed = true
	return nil
}

// lockingFake adds Locker and Controller.
type lockingFake struct {
	fakeHandler
	locked   [][2]int64
	ctrlSeen []byte
}

func (l *lockingFake) Lock(off, n int64) error {
	l.locked = append(l.locked, [2]int64{off, n})
	return nil
}

func (l *lockingFake) Unlock(off, n int64) error {
	for i, sp := range l.locked {
		if sp[0] == off && sp[1] == n {
			l.locked = append(l.locked[:i], l.locked[i+1:]...)
			return nil
		}
	}
	return errors.New("not held")
}

func (l *lockingFake) Control(req []byte) ([]byte, error) {
	l.ctrlSeen = append([]byte(nil), req...)
	return []byte("ack"), nil
}

func TestDispatchRead(t *testing.T) {
	h := &fakeHandler{data: []byte("0123456789")}
	d := newDispatcher(h)

	resp := dispatchT(d, &wire.Request{Op: wire.OpRead, Seq: 3, Off: 2, N: 4})
	if resp.Status != wire.StatusOK || resp.Seq != 3 || string(resp.Data) != "2345" || resp.N != 4 {
		t.Errorf("read resp = %+v", resp)
	}

	// Short read at EOF keeps its data and reports EOF.
	resp = dispatchT(d, &wire.Request{Op: wire.OpRead, Off: 8, N: 4})
	if resp.Status != wire.StatusEOF || string(resp.Data) != "89" || resp.N != 2 {
		t.Errorf("eof read resp = %+v", resp)
	}

	// Past-end read is a clean EOF.
	resp = dispatchT(d, &wire.Request{Op: wire.OpRead, Off: 100, N: 4})
	if resp.Status != wire.StatusEOF || resp.N != 0 {
		t.Errorf("past-end resp = %+v", resp)
	}
}

func TestDispatchReadBadSize(t *testing.T) {
	d := newDispatcher(&fakeHandler{})
	for _, n := range []int64{-1, wire.MaxPayload + 1} {
		resp := dispatchT(d, &wire.Request{Op: wire.OpRead, N: n})
		if resp.Status != wire.StatusError {
			t.Errorf("read N=%d status = %v, want error", n, resp.Status)
		}
	}
}

func TestDispatchWriteSizeTruncateSync(t *testing.T) {
	h := &fakeHandler{}
	d := newDispatcher(h)

	resp := dispatchT(d, &wire.Request{Op: wire.OpWrite, Off: 0, Data: []byte("abc")})
	if resp.Status != wire.StatusOK || resp.N != 3 {
		t.Errorf("write resp = %+v", resp)
	}
	resp = dispatchT(d, &wire.Request{Op: wire.OpSize})
	if resp.Status != wire.StatusOK || resp.N != 3 {
		t.Errorf("size resp = %+v", resp)
	}
	resp = dispatchT(d, &wire.Request{Op: wire.OpTruncate, Off: 1})
	if resp.Status != wire.StatusOK || h.truncated != 1 {
		t.Errorf("truncate resp = %+v, handler saw %d", resp, h.truncated)
	}
	resp = dispatchT(d, &wire.Request{Op: wire.OpSync})
	if resp.Status != wire.StatusOK {
		t.Errorf("sync resp = %+v", resp)
	}
	h.syncErr = errors.New("flush failed")
	resp = dispatchT(d, &wire.Request{Op: wire.OpSync})
	if resp.Status != wire.StatusError || resp.Msg != "flush failed" {
		t.Errorf("failed sync resp = %+v", resp)
	}
}

func TestDispatchLockAndControlOptionalInterfaces(t *testing.T) {
	plain := newDispatcher(&fakeHandler{})
	for _, op := range []wire.Op{wire.OpLock, wire.OpUnlock, wire.OpControl} {
		resp := dispatchT(plain, &wire.Request{Op: op})
		if resp.Status != wire.StatusUnsupported {
			t.Errorf("%v on plain handler status = %v, want unsupported", op, resp.Status)
		}
	}

	lf := &lockingFake{}
	rich := newDispatcher(lf)
	resp := dispatchT(rich, &wire.Request{Op: wire.OpLock, Off: 4, N: 8})
	if resp.Status != wire.StatusOK || len(lf.locked) != 1 {
		t.Errorf("lock resp = %+v, locked = %v", resp, lf.locked)
	}
	resp = dispatchT(rich, &wire.Request{Op: wire.OpUnlock, Off: 4, N: 8})
	if resp.Status != wire.StatusOK || len(lf.locked) != 0 {
		t.Errorf("unlock resp = %+v", resp)
	}
	resp = dispatchT(rich, &wire.Request{Op: wire.OpUnlock, Off: 9, N: 9})
	if resp.Status != wire.StatusError {
		t.Errorf("unheld unlock status = %v", resp.Status)
	}
	resp = dispatchT(rich, &wire.Request{Op: wire.OpControl, Data: []byte("cmd")})
	if resp.Status != wire.StatusOK || string(resp.Data) != "ack" || string(lf.ctrlSeen) != "cmd" {
		t.Errorf("control resp = %+v", resp)
	}
}

func TestDispatchClose(t *testing.T) {
	h := &fakeHandler{}
	d := newDispatcher(h)
	resp := dispatchT(d, &wire.Request{Op: wire.OpClose, Seq: 9})
	if resp.Status != wire.StatusOK || resp.Seq != 9 || !h.closed {
		t.Errorf("close resp = %+v, closed = %v", resp, h.closed)
	}
	// After close, operations report the session closed; a second close stays
	// a success and never reaches the handler twice.
	resp = dispatchT(d, &wire.Request{Op: wire.OpRead, N: 4})
	if resp.Status != wire.StatusClosed {
		t.Errorf("post-close read status = %v, want closed", resp.Status)
	}
	resp = dispatchT(d, &wire.Request{Op: wire.OpClose})
	if resp.Status != wire.StatusOK {
		t.Errorf("second close status = %v", resp.Status)
	}
}

func TestDispatchUnknownOp(t *testing.T) {
	d := newDispatcher(&fakeHandler{})
	resp := dispatchT(d, &wire.Request{Op: wire.OpStat})
	if resp.Status != wire.StatusUnsupported {
		t.Errorf("stat status = %v, want unsupported", resp.Status)
	}
	resp = dispatchT(d, &wire.Request{Op: wire.Op(99)})
	if resp.Status != wire.StatusUnsupported {
		t.Errorf("bogus op status = %v, want unsupported", resp.Status)
	}
}

func TestDispatchReadBuffersIndependent(t *testing.T) {
	// Read responses draw from the buffer pool: two dispatches whose releases
	// are still pending own distinct buffers, so concurrent responses never
	// scribble on each other (the old single reused buffer required lockstep
	// consumption).
	h := &fakeHandler{data: []byte("abcdef")}
	d := newDispatcher(h)
	first, rel1 := d.dispatch(&wire.Request{Op: wire.OpRead, Off: 0, N: 3}, nil)
	second, rel2 := d.dispatch(&wire.Request{Op: wire.OpRead, Off: 3, N: 3}, nil)
	if string(first.Data) != "abc" || string(second.Data) != "def" {
		t.Errorf("reads = %q, %q", first.Data, second.Data)
	}
	if &first.Data[0] == &second.Data[0] {
		t.Error("in-flight read responses share a buffer")
	}
	rel1()
	rel2()
}

func TestPrefetcherNilSafe(t *testing.T) {
	var p *prefetcher
	p.invalidate()
	p.afterRead(0, 16, 16, false)
	var resp wire.Response
	if _, ok := p.serve(&wire.Request{Op: wire.OpRead}, &resp); ok {
		t.Error("nil prefetcher served a request")
	}
	if _, _, ok := p.readAt(make([]byte, 8), 0); ok {
		t.Error("nil prefetcher served a readAt")
	}
}

func TestPrefetcherSentinelServe(t *testing.T) {
	d := newDispatcher(&fakeHandler{data: []byte("0123456789")})
	p := newPrefetcher(d.readAt, false)

	var resp wire.Response
	// Cold window: nothing to serve yet.
	if _, ok := p.serve(&wire.Request{Op: wire.OpRead, Off: 0, N: 4}, &resp); ok {
		t.Fatal("cold prefetcher served a request")
	}
	// First sequential read (from offset 0) arms a one-block fill at 4.
	p.afterRead(0, 4, 4, false)
	rel, ok := p.serve(&wire.Request{Op: wire.OpRead, Off: 4, N: 4, Seq: 7}, &resp)
	if !ok {
		t.Fatal("prefetcher did not serve the next sequential read")
	}
	if resp.Status != wire.StatusOK || string(resp.Data) != "4567" || resp.N != 4 || resp.Seq != 7 {
		t.Errorf("served resp = %+v", resp)
	}
	rel()

	// The window grows past EOF; the short tail serves with StatusEOF.
	p.afterRead(4, 4, 4, false)
	resp = wire.Response{}
	rel, ok = p.serve(&wire.Request{Op: wire.OpRead, Off: 8, N: 4}, &resp)
	if !ok {
		t.Fatal("prefetcher did not serve the EOF tail")
	}
	if resp.Status != wire.StatusEOF || string(resp.Data) != "89" || resp.N != 2 {
		t.Errorf("eof serve = %+v", resp)
	}
	rel()

	// Reads entirely past a window that ends at EOF serve zero bytes.
	resp = wire.Response{}
	rel, ok = p.serve(&wire.Request{Op: wire.OpRead, Off: 100, N: 4}, &resp)
	if !ok {
		t.Fatal("prefetcher did not serve the past-end read")
	}
	if resp.Status != wire.StatusEOF || resp.N != 0 {
		t.Errorf("past-end serve = %+v", resp)
	}
	rel()

	// Invalidate discards the window.
	p.afterRead(0, 4, 4, false)
	p.invalidate()
	if _, ok := p.serve(&wire.Request{Op: wire.OpRead, Off: 4, N: 4}, &resp); ok {
		t.Error("prefetcher served after invalidate")
	}
}

func TestPrefetcherRandomAccessStops(t *testing.T) {
	calls := 0
	read := func(p []byte, off int64) (int, error) {
		calls++
		return len(p), nil
	}
	p := newPrefetcher(read, false)
	// A non-sequential read resets the streak: no fill is issued.
	p.afterRead(1000, 4, 4, false)
	if calls != 0 {
		t.Errorf("random access triggered %d fills", calls)
	}
	// The follow-up at the new expected offset is sequential again.
	p.afterRead(1004, 4, 4, false)
	if calls != 1 {
		t.Errorf("resumed sequential access triggered %d fills, want 1", calls)
	}
}

func TestPrefetcherWindowScaling(t *testing.T) {
	for _, tt := range []struct {
		streak, block, want int
	}{
		{0, 512, 0},
		{1, 512, 1024},
		{2, 512, 2048},
		{3, 512, 4096},
		{5, 512, prefetchMaxBlocks * 512},
		{10, 512, prefetchMaxBlocks * 512},
		{10, 8192, prefetchMaxBytes},
	} {
		if got := windowTarget(tt.streak, tt.block); got != tt.want {
			t.Errorf("windowTarget(%d, %d) = %d, want %d", tt.streak, tt.block, got, tt.want)
		}
	}
}

func TestPrefetcherClientReadAt(t *testing.T) {
	backing := []byte("abcdefghijklmnopqrstuvwxyz")
	calls := 0
	read := func(p []byte, off int64) (int, error) {
		calls++
		if off >= int64(len(backing)) {
			return 0, io.EOF
		}
		n := copy(p, backing[off:])
		if n < len(p) {
			return n, io.EOF
		}
		return n, nil
	}
	// Synchronous fills make the hit pattern deterministic.
	p := newPrefetcher(read, false)

	dst := make([]byte, 4)
	if _, _, ok := p.readAt(dst, 0); ok {
		t.Fatal("cold window served a read")
	}
	// The transport reads through and reports; the fill covers [4, 8).
	p.afterRead(0, 4, 4, false)
	n, err, ok := p.readAt(dst, 4)
	if !ok || n != 4 || err != nil || string(dst) != "efgh" {
		t.Fatalf("window read = %d %v %v %q", n, err, ok, dst)
	}
	// Serving from the window keeps extending it; the whole file streams
	// with no further misses.
	off := int64(8)
	var got []byte
	for {
		n, err, ok := p.readAt(dst, off)
		if !ok {
			t.Fatalf("window miss at %d", off)
		}
		got = append(got, dst[:n]...)
		off += int64(n)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatalf("read error: %v", err)
			}
			break
		}
	}
	if string(got) != string(backing[8:]) {
		t.Errorf("streamed %q, want %q", got, backing[8:])
	}
}

// countingHandler counts backing WriteAt calls for coalescing assertions.
type countingHandler struct {
	fakeHandler
	writes   int
	writeErr error
}

func (c *countingHandler) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	if c.writeErr != nil {
		return 0, c.writeErr
	}
	return c.fakeHandler.WriteAt(p, off)
}

func TestWriteBehindCoalesces(t *testing.T) {
	h := &countingHandler{}
	d := newDispatcher(h)
	d.enableWriteBehind()

	// 16 adjacent 8-byte writes coalesce into zero backing writes until the
	// sync barrier flushes the single 128-byte run.
	for i := 0; i < 16; i++ {
		if _, err := d.writeAt([]byte("01234567"), int64(i*8)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if h.writes != 0 {
		t.Fatalf("backing writes before sync = %d, want 0", h.writes)
	}
	if err := d.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if h.writes != 1 {
		t.Errorf("backing writes after sync = %d, want 1", h.writes)
	}
	if len(h.data) != 128 {
		t.Errorf("backing size = %d, want 128", len(h.data))
	}
}

func TestWriteBehindReadYourWrites(t *testing.T) {
	h := &countingHandler{}
	d := newDispatcher(h)
	d.enableWriteBehind()

	if _, err := d.writeAt([]byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	// An overlapping read flushes the run first.
	buf := make([]byte, 5)
	n, err := d.readAt(buf, 0)
	if n != 5 || (err != nil && !errors.Is(err, io.EOF)) || string(buf) != "hello" {
		t.Fatalf("read-after-write = %d %v %q", n, err, buf)
	}
	if h.writes != 1 {
		t.Errorf("overlapping read flushed %d backing writes, want 1", h.writes)
	}
	// A disjoint read leaves the buffer alone.
	if _, err := d.writeAt([]byte("world"), 100); err != nil {
		t.Fatal(err)
	}
	d.readAt(buf, 0)
	if h.writes != 1 {
		t.Errorf("disjoint read flushed the run (writes = %d)", h.writes)
	}
}

func TestWriteBehindNonAdjacentAndDeferredError(t *testing.T) {
	h := &countingHandler{}
	d := newDispatcher(h)
	d.enableWriteBehind()

	// A non-adjacent write flushes the previous run and starts a new one.
	d.writeAt([]byte("aa"), 0)
	d.writeAt([]byte("bb"), 50)
	if h.writes != 1 {
		t.Fatalf("non-adjacent write flushed %d runs, want 1", h.writes)
	}

	// Backing failure is deferred: the write reports success, the next sync
	// carries the error, and the one after is clean again.
	h.writeErr = errors.New("disk full")
	if _, err := d.writeAt([]byte("cc"), 52); err != nil {
		t.Fatalf("buffered write reported %v", err)
	}
	if err := d.sync(); err == nil || err.Error() != "disk full" {
		t.Errorf("sync err = %v, want disk full", err)
	}
	h.writeErr = nil
	if err := d.sync(); err != nil {
		t.Errorf("second sync err = %v", err)
	}
}

func TestWriteBehindLargeWritesBypass(t *testing.T) {
	h := &countingHandler{}
	d := newDispatcher(h)
	d.enableWriteBehind()

	d.writeAt([]byte("aa"), 0)
	big := make([]byte, writeBehindMax)
	if _, err := d.writeAt(big, 2); err != nil {
		t.Fatal(err)
	}
	// The pending small run flushed first, then the large write went
	// straight through: two backing writes, correct order.
	if h.writes != 2 {
		t.Errorf("backing writes = %d, want 2", h.writes)
	}
	if string(h.data[:2]) != "aa" {
		t.Errorf("backing prefix = %q", h.data[:2])
	}
}

func TestWriteBehindDispatchOps(t *testing.T) {
	h := &countingHandler{}
	d := newDispatcher(h)
	d.enableWriteBehind()

	// Writes through dispatch() buffer the same way.
	resp := dispatchT(d, &wire.Request{Op: wire.OpWrite, Off: 0, Data: []byte("abc")})
	if resp.Status != wire.StatusOK || resp.N != 3 {
		t.Fatalf("write resp = %+v", resp)
	}
	if h.writes != 0 {
		t.Fatalf("dispatch write went straight through")
	}
	// Size flushes so buffered bytes count.
	resp = dispatchT(d, &wire.Request{Op: wire.OpSize})
	if resp.Status != wire.StatusOK || resp.N != 3 {
		t.Errorf("size resp = %+v", resp)
	}
	// Close settles the buffer before the handler closes.
	dispatchT(d, &wire.Request{Op: wire.OpWrite, Off: 3, Data: []byte("def")})
	resp = dispatchT(d, &wire.Request{Op: wire.OpClose})
	if resp.Status != wire.StatusOK || !h.closed {
		t.Fatalf("close resp = %+v", resp)
	}
	if string(h.data) != "abcdef" {
		t.Errorf("backing data = %q, want abcdef", h.data)
	}
}
