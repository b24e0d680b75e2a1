package cache

import (
	"bytes"
	"testing"
)

// TestBlockCacheEpochInvalidatesHits: bumping the epoch makes every cached
// block stale — the next read refills from the backing store instead of
// serving the old bytes.
func TestBlockCacheEpochInvalidatesHits(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(bytes.Repeat([]byte("a"), 256), 0)
	store := &countingStore{Object: mem}
	c, err := NewBlockCache(store, 64, 8)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, 64)
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	readsBefore := store.reads

	// The backing store changes out of band (a conflicting write elsewhere in
	// a fleet); the epoch bump is the revoke signal.
	mem.WriteAt(bytes.Repeat([]byte("b"), 256), 0)
	c.SetEpoch(1)

	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte("b"), 64)) {
		t.Fatalf("read after epoch bump served stale bytes: %q", buf[:8])
	}
	if store.reads == readsBefore {
		t.Fatal("epoch bump did not force a refill from backing")
	}
	if st := c.Stats(); st.Invalidations == 0 {
		t.Fatalf("stats = %+v, want invalidations after epoch bump", st)
	}

	// The refilled block is tagged with the new epoch: hits resume.
	readsAfterRefill := store.reads
	if _, err := c.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if store.reads != readsAfterRefill {
		t.Fatal("post-refill read went to backing despite a fresh tag")
	}
}

// TestBlockCacheEpochMonotonic: SetEpoch never moves backwards, so a stale
// revoke arriving late cannot resurrect invalid cache contents.
func TestBlockCacheEpochMonotonic(t *testing.T) {
	mem := NewMemStore()
	mem.WriteAt(make([]byte, 128), 0)
	c, err := NewBlockCache(mem, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != 0 {
		t.Fatalf("fresh cache epoch = %d, want 0", c.Epoch())
	}
	c.SetEpoch(5)
	c.SetEpoch(3) // late, out-of-order signal
	if c.Epoch() != 5 {
		t.Fatalf("epoch regressed to %d", c.Epoch())
	}
	c.SetEpoch(5) // idempotent
	if c.Epoch() != 5 {
		t.Fatalf("epoch = %d after idempotent set", c.Epoch())
	}
}
