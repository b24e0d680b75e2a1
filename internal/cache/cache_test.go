package cache

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		give    string
		want    Mode
		wantErr bool
	}{
		{give: "", want: ModeNone},
		{give: "none", want: ModeNone},
		{give: "disk", want: ModeDisk},
		{give: "memory", want: ModeMemory},
		{give: "mem", want: ModeMemory},
		{give: "MEMORY", want: ModeMemory},
		{give: "l2", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseMode(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Errorf("ParseMode(%q) succeeded, want error", tt.give)
				}
				return
			}
			if err != nil || got != tt.want {
				t.Errorf("ParseMode(%q) = (%v, %v), want %v", tt.give, got, err, tt.want)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	tests := []struct {
		give Mode
		want string
	}{
		{ModeNone, "none"},
		{ModeDisk, "disk"},
		{ModeMemory, "memory"},
		{Mode(9), "mode(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Mode(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestMemStoreBasics(t *testing.T) {
	m := NewMemStore()
	if _, err := m.WriteAt([]byte("abcdef"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := m.ReadAt(buf, 2); err != nil || string(buf) != "cde" {
		t.Errorf("ReadAt = (%q, %v)", buf, err)
	}
	if size, _ := m.Size(); size != 6 {
		t.Errorf("Size = %d, want 6", size)
	}
	if err := m.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(buf, 2); !errors.Is(err, io.EOF) {
		t.Errorf("ReadAt after truncate err = %v, want EOF", err)
	}
	if err := m.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if size, _ := m.Size(); size != 4 {
		t.Errorf("Size after grow = %d, want 4", size)
	}
}

func TestPassthroughForwards(t *testing.T) {
	store := NewMemStore()
	b, err := NewPassthrough(store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("direct"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 6)
	if _, err := store.ReadAt(got, 0); err != nil || string(got) != "direct" {
		t.Errorf("store saw (%q, %v), want write-through", got, err)
	}
	if _, err := b.ReadAt(got, 0); err != nil || string(got) != "direct" {
		t.Errorf("backend read = (%q, %v)", got, err)
	}
	if size, _ := b.Size(); size != 6 {
		t.Errorf("Size = %d", size)
	}
	if err := b.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if err := b.Truncate(0); err != nil {
		t.Errorf("Truncate: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

func TestNewBackendsRejectNilStore(t *testing.T) {
	if _, err := NewPassthrough(nil); err == nil {
		t.Error("NewPassthrough(nil) succeeded")
	}
	if _, err := NewLocal(nil, NewMemStore()); err == nil {
		t.Error("NewLocal(nil, ...) succeeded")
	}
	if _, err := NewBlockCache(nil, 4, 4); err == nil {
		t.Error("NewBlockCache(nil, ...) succeeded")
	}
}

func TestLocalServesFromLocalStore(t *testing.T) {
	remote := NewMemStore()
	remote.WriteAt([]byte("remote truth"), 0)
	local := NewMemStore()
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Populate(); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	buf := make([]byte, 12)
	if _, err := b.ReadAt(buf, 0); err != nil || string(buf) != "remote truth" {
		t.Fatalf("ReadAt = (%q, %v)", buf, err)
	}
	// Mutate the remote after population: reads must keep coming from the
	// local copy (that is the point of path 2/3).
	remote.WriteAt([]byte("REMOTE"), 0)
	if _, err := b.ReadAt(buf, 0); err != nil || string(buf) != "remote truth" {
		t.Errorf("ReadAt after remote mutation = (%q, %v), want cached copy", buf, err)
	}
}

func TestLocalWritePropagatesOnSync(t *testing.T) {
	remote := NewMemStore()
	local := NewMemStore()
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("dirty"), 0); err != nil {
		t.Fatal(err)
	}
	// Before Sync the remote has not seen the write.
	if size, _ := remote.Size(); size != 0 {
		t.Errorf("remote size before sync = %d, want 0", size)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := remote.ReadAt(buf, 0); err != nil || string(buf) != "dirty" {
		t.Errorf("remote after sync = (%q, %v)", buf, err)
	}
	// Clean sync is a no-op even if the remote then diverges.
	remote.WriteAt([]byte("XXXXX"), 0)
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	remote.ReadAt(buf, 0)
	if string(buf) != "XXXXX" {
		t.Errorf("clean Sync overwrote remote: %q", buf)
	}
}

func TestLocalTruncateMarksDirty(t *testing.T) {
	remote := NewMemStore()
	remote.WriteAt([]byte("0123456789"), 0)
	local := NewMemStore()
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Populate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if size, _ := remote.Size(); size != 4 {
		t.Errorf("remote size after truncate sync = %d, want 4", size)
	}
}

func TestLocalCloseFlushes(t *testing.T) {
	remote := NewMemStore()
	// Close closes the remote handle Local holds; the test reads through
	// its own.
	b, err := NewLocal(NewMemStore(), remote.Open())
	if err != nil {
		t.Fatal(err)
	}
	b.WriteAt([]byte("bye"), 0)
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, 3)
	if _, err := remote.ReadAt(buf, 0); err != nil || string(buf) != "bye" {
		t.Errorf("remote after close = (%q, %v)", buf, err)
	}
}

func TestLocalWithoutRemote(t *testing.T) {
	b, err := NewLocal(NewMemStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Populate(); err != nil {
		t.Errorf("Populate without remote: %v", err)
	}
	b.WriteAt([]byte("solo"), 0)
	if err := b.Sync(); err != nil {
		t.Errorf("Sync without remote: %v", err)
	}
}

// countingStore counts operations reaching the backing store.
type countingStore struct {
	Object
	reads, writes int
}

func (c *countingStore) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.Object.ReadAt(p, off)
}

func (c *countingStore) WriteAt(p []byte, off int64) (int, error) {
	c.writes++
	return c.Object.WriteAt(p, off)
}

func TestBlockCacheHitAvoidsBacking(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("x"), 1024), 0)
	store := &countingStore{Object: mem}
	c, err := NewBlockCache(store, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	readsAfterMiss := store.reads
	for i := 0; i < 10; i++ {
		if _, err := c.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if store.reads != readsAfterMiss {
		t.Errorf("backing reads grew from %d to %d on cache hits", readsAfterMiss, store.reads)
	}
	st := c.Stats()
	if st.Hits != 10 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 10 hits / 1 miss", st)
	}
}

func TestBlockCacheWriteThrough(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(make([]byte, 256), 0)
	c, err := NewBlockCache(mem, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Fault in block 0, then write through it.
	buf := make([]byte, 8)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteAt([]byte("fresh"), 2); err != nil {
		t.Fatal(err)
	}
	// The backing store sees the write immediately.
	got := make([]byte, 5)
	if _, err := mem.ReadAt(got, 2); err != nil || string(got) != "fresh" {
		t.Errorf("backing = (%q, %v)", got, err)
	}
	// A subsequent read through the cache observes the write.
	if _, err := c.ReadAt(got, 2); err != nil || string(got) != "fresh" {
		t.Errorf("cached read = (%q, %v)", got, err)
	}
}

func TestBlockCacheLRUEviction(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(make([]byte, 64*10), 0)
	c, err := NewBlockCache(mem, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	c.ReadAt(buf, 0)    // block 0
	c.ReadAt(buf, 64)   // block 1
	c.ReadAt(buf, 0)    // touch block 0 (now MRU)
	c.ReadAt(buf, 2*64) // block 2 evicts block 1
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// Re-reading block 0 is still a hit; block 1 is a miss.
	before := c.Stats().Misses
	c.ReadAt(buf, 0)
	if c.Stats().Misses != before {
		t.Error("block 0 was evicted, want it retained as MRU")
	}
	c.ReadAt(buf, 64)
	if c.Stats().Misses != before+1 {
		t.Error("block 1 unexpectedly still cached")
	}
}

func TestBlockCacheInvalidate(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("a"), 256), 0)
	c, err := NewBlockCache(mem, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	c.ReadAt(buf, 0)
	// External writer updates the source behind the cache's back.
	mem.WriteAt(bytes.Repeat([]byte("b"), 64), 0)
	c.ReadAt(buf, 0)
	if buf[0] != 'a' {
		t.Fatal("expected stale read before invalidation")
	}
	c.Invalidate(0, 64)
	c.ReadAt(buf, 0)
	if buf[0] != 'b' {
		t.Error("read after Invalidate still stale")
	}
	if st := c.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

func TestBlockCacheInvalidateAll(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(make([]byte, 256), 0)
	c, err := NewBlockCache(mem, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	for off := int64(0); off < 256; off += 64 {
		c.ReadAt(buf, off)
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	c.InvalidateAll()
	if c.Len() != 0 {
		t.Errorf("Len after InvalidateAll = %d, want 0", c.Len())
	}
}

func TestBlockCacheTruncateDropsBlocks(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("z"), 256), 0)
	c, err := NewBlockCache(mem, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	c.ReadAt(buf, 0)
	if err := c.Truncate(10); err != nil {
		t.Fatal(err)
	}
	n, err := c.ReadAt(buf, 0)
	if n != 10 || !errors.Is(err, io.EOF) {
		t.Errorf("ReadAt after truncate = (%d, %v), want (10, EOF)", n, err)
	}
}

func TestBlockCacheEOFAtExactEnd(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt([]byte("0123456789"), 0)
	c, err := NewBlockCache(mem, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := c.ReadAt(buf, 10); !errors.Is(err, io.EOF) {
		t.Errorf("ReadAt at end err = %v, want EOF", err)
	}
	n, err := c.ReadAt(buf, 8)
	if n != 2 || !errors.Is(err, io.EOF) {
		t.Errorf("ReadAt(8) = (%d, %v), want (2, EOF)", n, err)
	}
}

func TestBlockCacheRejectsBadConfig(t *testing.T) {
	mem := NewMemStore()
	if _, err := NewBlockCache(mem, 0, 4); err == nil {
		t.Error("blockSize 0 accepted")
	}
	if _, err := NewBlockCache(mem, 64, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestBlockCacheMatchesBackingProperty(t *testing.T) {
	// Under any interleaving of cached reads and write-throughs, a read
	// through the cache returns exactly what a direct read of the backing
	// store would.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := NewMemStore()
		initial := make([]byte, 1000)
		rng.Read(initial)
		mem.WriteAt(initial, 0)

		c, err := NewBlockCache(mem, 32, 4)
		if err != nil {
			return false
		}
		for i := 0; i < 200; i++ {
			off := int64(rng.Intn(1000))
			n := rng.Intn(100) + 1
			if rng.Intn(2) == 0 {
				data := make([]byte, n)
				rng.Read(data)
				if _, err := c.WriteAt(data, off); err != nil {
					return false
				}
			} else {
				got := make([]byte, n)
				gn, gerr := c.ReadAt(got, off)
				want := make([]byte, n)
				wn, werr := mem.ReadAt(want, off)
				if gn != wn || !bytes.Equal(got[:gn], want[:wn]) {
					return false
				}
				if (gerr == nil) != (werr == nil) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBlockCacheSizeDelegates(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(make([]byte, 100), 0)
	c, err := NewBlockCache(mem, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if size, err := c.Size(); err != nil || size != 100 {
		t.Errorf("Size = (%d, %v), want 100", size, err)
	}
}

func TestLocalCloseClosesBothStores(t *testing.T) {
	local := remoteCloser{NewMemStore(), new(bool)}
	remote := remoteCloser{NewMemStore(), new(bool)}
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !*local.closed || !*remote.closed {
		t.Errorf("closed = local %v, remote %v", *local.closed, *remote.closed)
	}
}

// remoteCloser decorates an Object with a Close flag.
type remoteCloser struct {
	Object
	closed *bool
}

func (r remoteCloser) Close() error {
	*r.closed = true
	return nil
}

func TestPassthroughCloseClosesStore(t *testing.T) {
	store := remoteCloser{NewMemStore(), new(bool)}
	b, err := NewPassthrough(store)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if !*store.closed {
		t.Error("underlying store not closed")
	}
}

// gatedStore blocks ReadAt on selected blocks until released, to exercise
// the singleflight fill path.
type gatedStore struct {
	Object
	mu       sync.Mutex
	gate     chan struct{} // non-nil: reads of gatedOff block until closed
	gatedOff int64
	started  chan struct{} // receives one token per gated read that began
	reads    int32
}

func (g *gatedStore) ReadAt(p []byte, off int64) (int, error) {
	atomic.AddInt32(&g.reads, 1)
	g.mu.Lock()
	gate := g.gate
	gated := gate != nil && off == g.gatedOff
	g.mu.Unlock()
	if gated {
		g.started <- struct{}{}
		<-gate
	}
	return g.Object.ReadAt(p, off)
}

func TestBlockCacheHitsProceedDuringSlowMiss(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("x"), 256), 0)
	store := &gatedStore{
		Object:   mem,
		gate:     make(chan struct{}),
		gatedOff: 64, // block index 1
		started:  make(chan struct{}, 1),
	}
	c, err := NewBlockCache(store, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Warm block 0, then start a miss of block 1 that hangs in the backing
	// store.
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	missDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(make([]byte, 64), 64)
		missDone <- err
	}()
	<-store.started // the miss is inside the backing ReadAt

	// The regression this guards: a hit on block 0 must complete while the
	// miss still holds the backing store.
	hitDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(make([]byte, 64), 0)
		hitDone <- err
	}()
	select {
	case err := <-hitDone:
		if err != nil {
			t.Fatalf("hit during miss: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("hit on a cached block stalled behind a slow miss")
	}

	// A second miss of the SAME block joins the in-flight fill instead of
	// issuing its own backing read.
	joinDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(make([]byte, 64), 64)
		joinDone <- err
	}()
	close(store.gate)
	for _, ch := range []chan error{missDone, joinDone} {
		if err := <-ch; err != nil {
			t.Fatalf("gated read: %v", err)
		}
	}
	if n := atomic.LoadInt32(&store.reads); n != 2 { // block 0 + one shared fill of block 1
		t.Errorf("backing reads = %d, want 2 (concurrent misses must share one fill)", n)
	}
}

func TestBlockCacheWriteRacingFillStaysConsistent(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("a"), 64), 0)
	store := &gatedStore{
		Object:   mem,
		gate:     make(chan struct{}),
		gatedOff: 0,
		started:  make(chan struct{}, 1),
	}
	c, err := NewBlockCache(store, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		_, err := c.ReadAt(make([]byte, 64), 0)
		readDone <- err
	}()
	<-store.started

	// While the fill is reading, a write lands. Ungate it from another
	// goroutine is not needed: the write path does not touch the gated read.
	if _, err := c.WriteAt(bytes.Repeat([]byte("b"), 64), 0); err != nil {
		t.Fatal(err)
	}
	close(store.gate)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	// Whatever the racing reader saw, a read AFTER the write must see the
	// written bytes, not a cached pre-write fill.
	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte("b"), 64)) {
		t.Errorf("post-write read = %q..., want all 'b'", buf[:8])
	}
}
