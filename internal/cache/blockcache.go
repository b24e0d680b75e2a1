package cache

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Stats counts BlockCache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

// add accumulates o into s.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Invalidations += o.Invalidations
}

// Shard sizing heuristics. Sharding only pays when each shard still holds a
// useful working set, so small caches stay at one shard — preserving exact
// global LRU order — and larger ones split until shards would drop below
// minBlocksPerShard blocks or reach maxShards.
const (
	minBlocksPerShard = 8
	maxShards         = 16
)

// BlockCache layers an LRU cache of fixed-size blocks over a slower
// Object (typically a remote source). Reads of hot blocks are served
// locally; writes go through to the backing store and update the cached
// copy. Invalidate discards blocks when a remote update notification
// arrives, keeping the cache consistent with the source.
//
// The cache is split into power-of-two SHARDS, each with its own lock, LRU
// list, and counters; a block's shard is its index masked by shards-1, so
// sequential blocks round-robin across shards and concurrent clients touching
// different blocks rarely contend on the same lock. Each shard keeps the
// singleflight fill discipline: concurrent misses of one block share one
// backing read, and hits on other blocks in the same shard proceed while a
// fill is in flight. Eviction is per shard (capacity is divided among
// shards), so LRU order is approximate across the whole cache but exact
// within a shard; a single-shard cache — the default for small capacities —
// keeps the exact global LRU of the unsharded design.
type BlockCache struct {
	backing   Object
	blockSize int
	capacity  int

	shards []*blockShard
	mask   int64 // len(shards)-1; shard key = block index & mask

	// epoch is the cache's validity generation, the client half of the
	// lease/epoch invalidation protocol. Every block is tagged with the
	// epoch current when its fill BEGAN (before the backing read, so a bump
	// racing a fill invalidates data that may predate the bump); a hit on a
	// block tagged with an older epoch refetches instead of serving it.
	// SetEpoch therefore invalidates every earlier entry in O(1) — the
	// lease-revoke push path — with the dead entries reaped lazily on access
	// or eviction.
	epoch atomic.Uint64
}

// blockShard is one independently locked slice of the cache.
type blockShard struct {
	capacity int

	mu     sync.Mutex
	blocks map[int64]*list.Element // block index -> lru element
	lru    *list.List              // front = most recently used
	stats  Stats
}

type cachedBlock struct {
	index int64
	data  []byte // exactly blockSize, zero padded past EOF; nil until filled
	valid int    // bytes of data that are real (≤ blockSize)
	epoch uint64 // cache epoch when the fill began; older than current = invalid

	// Singleflight fill state. A block is inserted as a placeholder before
	// its backing read runs, so concurrent readers of the same block share
	// one fault-in while readers of other blocks proceed. ready is closed
	// when the fill settles; filled/err/stale (guarded by the shard mutex)
	// say how: filled means data is usable, err carries a failed backing
	// read, stale means a write or invalidation raced the fill and the
	// reader must refetch.
	ready  chan struct{}
	filled bool
	err    error
	stale  bool
}

var _ Object = (*BlockCache)(nil)

// defaultShardCount picks the shard count for a capacity: split while every
// shard keeps at least minBlocksPerShard blocks, up to maxShards.
func defaultShardCount(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minBlocksPerShard {
		n *= 2
	}
	return n
}

// NewBlockCache returns a cache of up to capacity blocks of blockSize bytes
// over backing, sharded according to capacity (small caches get one shard
// and exact global LRU).
func NewBlockCache(backing Object, blockSize, capacity int) (*BlockCache, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	return NewBlockCacheSharded(backing, blockSize, capacity, defaultShardCount(capacity))
}

// NewBlockCacheSharded is NewBlockCache with an explicit shard count, which
// must be a power of two no larger than capacity. Capacity divides across
// shards (remainder to the first shards), so the total never exceeds the
// requested capacity.
func NewBlockCacheSharded(backing Object, blockSize, capacity, shards int) (*BlockCache, error) {
	if backing == nil {
		return nil, errNoStore
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("cache: block size %d must be positive", blockSize)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity %d must be positive", capacity)
	}
	if shards <= 0 || shards&(shards-1) != 0 {
		return nil, fmt.Errorf("cache: shard count %d must be a power of two", shards)
	}
	if shards > capacity {
		return nil, fmt.Errorf("cache: shard count %d exceeds capacity %d", shards, capacity)
	}
	c := &BlockCache{
		backing:   backing,
		blockSize: blockSize,
		capacity:  capacity,
		shards:    make([]*blockShard, shards),
		mask:      int64(shards - 1),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		cap := base
		if i < extra {
			cap++
		}
		c.shards[i] = &blockShard{
			capacity: cap,
			blocks:   make(map[int64]*list.Element, cap),
			lru:      list.New(),
		}
	}
	return c, nil
}

// shard returns the shard owning the given block index.
func (c *BlockCache) shard(index int64) *blockShard {
	return c.shards[index&c.mask]
}

// ShardCount reports how many independently locked shards the cache uses.
func (c *BlockCache) ShardCount() int { return len(c.shards) }

// Stats returns a snapshot of the hit/miss/eviction counters summed across
// shards.
func (c *BlockCache) Stats() Stats {
	var total Stats
	for _, s := range c.shards {
		s.mu.Lock()
		total.add(s.stats)
		s.mu.Unlock()
	}
	return total
}

// ShardStats returns each shard's counters, in shard order — the observable
// evidence that load spreads across locks.
func (c *BlockCache) ShardStats() []Stats {
	out := make([]Stats, len(c.shards))
	for i, s := range c.shards {
		s.mu.Lock()
		out[i] = s.stats
		s.mu.Unlock()
	}
	return out
}

// block returns the ready cached block at index, faulting it in on a miss.
// The backing read runs with the shard mutex RELEASED: a slow remote miss no
// longer blocks other readers — hits on cached blocks proceed, and concurrent
// misses of the same block wait on one shared fill instead of issuing their
// own.
func (c *BlockCache) block(index int64) (*cachedBlock, error) {
	s := c.shard(index)
	for {
		cur := c.epoch.Load()
		s.mu.Lock()
		if el, ok := s.blocks[index]; ok {
			blk, bok := el.Value.(*cachedBlock)
			if !bok {
				s.mu.Unlock()
				return nil, errors.New("cache: corrupt lru entry")
			}
			if blk.epoch != cur {
				// Tagged with a revoked epoch: the entry predates an
				// invalidation push. Drop it (marking an in-flight fill stale
				// so its waiters refetch too) and fault in fresh bytes.
				if !blk.filled {
					blk.stale = true
				}
				s.removeLocked(blk)
				s.stats.Invalidations++
				s.mu.Unlock()
				continue
			}
			s.stats.Hits++
			s.lru.MoveToFront(el)
			if !blk.filled {
				s.mu.Unlock()
				<-blk.ready // a fill is in flight; join it
				s.mu.Lock()
				if blk.err != nil || blk.stale {
					err := blk.err
					s.mu.Unlock()
					if err != nil {
						return nil, err
					}
					continue // the fill lost a race with a write; refetch
				}
			}
			if blk.epoch != c.epoch.Load() {
				s.removeLocked(blk) // epoch advanced while we joined the fill
				s.mu.Unlock()
				continue
			}
			s.mu.Unlock()
			return blk, nil
		}

		s.stats.Misses++
		blk := &cachedBlock{index: index, epoch: cur, ready: make(chan struct{})}
		s.insert(blk)
		s.mu.Unlock()

		data := make([]byte, c.blockSize)
		n, err := c.backing.ReadAt(data, index*int64(c.blockSize))

		s.mu.Lock()
		if err != nil && !errors.Is(err, io.EOF) {
			blk.err = err
			s.removeLocked(blk) // future readers retry the backing store
		} else {
			blk.data = data
			blk.valid = n
			blk.filled = true
			if blk.stale {
				// A write or invalidation landed while the fill was reading;
				// the data may predate it. Drop the entry so everyone
				// refetches.
				s.removeLocked(blk)
			}
		}
		if blk.filled && blk.epoch != c.epoch.Load() {
			// An invalidation (lease revoke, SetEpoch) landed during the
			// backing read: the bytes may predate the event it announced.
			blk.stale = true
			s.removeLocked(blk)
		}
		stale, ferr := blk.stale, blk.err
		close(blk.ready)
		s.mu.Unlock()
		if ferr != nil {
			return nil, ferr
		}
		if stale {
			continue
		}
		return blk, nil
	}
}

// removeLocked drops blk's map/lru entry if it is still the mapped one.
// Called with s.mu held; idempotent.
func (s *blockShard) removeLocked(blk *cachedBlock) {
	if el, ok := s.blocks[blk.index]; ok && el.Value == any(blk) {
		s.lru.Remove(el)
		delete(s.blocks, blk.index)
	}
}

// insert adds blk to the shard, evicting its least recently used block if at
// capacity. Called with s.mu held.
func (s *blockShard) insert(blk *cachedBlock) {
	for s.lru.Len() >= s.capacity {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		old, ok := oldest.Value.(*cachedBlock)
		if ok {
			delete(s.blocks, old.index)
		}
		s.lru.Remove(oldest)
		s.stats.Evictions++
	}
	s.blocks[blk.index] = s.lru.PushFront(blk)
}

// ReadAt implements Object, serving from cached blocks where possible.
// A shard lock is held only for lookups and copies, never across a backing
// fault-in.
func (c *BlockCache) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("cache: negative offset")
	}
	total := 0
	for total < len(p) {
		pos := off + int64(total)
		index := pos / int64(c.blockSize)
		inBlock := int(pos % int64(c.blockSize))
		blk, err := c.block(index)
		if err != nil {
			return total, err
		}
		// Copy under the shard lock: writes patch filled blocks in place.
		s := c.shard(index)
		s.mu.Lock()
		if inBlock >= blk.valid {
			s.mu.Unlock()
			return total, io.EOF
		}
		n := copy(p[total:], blk.data[inBlock:blk.valid])
		short := blk.valid < c.blockSize
		s.mu.Unlock()
		total += n
		if short {
			// Short block: end of the backing object.
			if total < len(p) {
				return total, io.EOF
			}
			break
		}
	}
	return total, nil
}

// WriteAt implements Object: write-through to the backing store, then
// drop any cached blocks the write spans so subsequent reads refetch them.
func (c *BlockCache) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("cache: negative offset")
	}
	n, err := c.backing.WriteAt(p, off)
	c.patch(p[:n], off)
	return n, err
}

// patch invalidates the cached blocks a write spans, locking each spanned
// block's shard in turn.
func (c *BlockCache) patch(p []byte, off int64) {
	done := 0
	for done < len(p) {
		pos := off + int64(done)
		index := pos / int64(c.blockSize)
		inBlock := int(pos % int64(c.blockSize))
		span := c.blockSize - inBlock
		if span > len(p)-done {
			span = len(p) - done
		}
		s := c.shard(index)
		s.mu.Lock()
		if el, ok := s.blocks[index]; ok {
			if blk, ok := el.Value.(*cachedBlock); ok {
				// Drop the block rather than patching it in place: the store
				// write and this cache update are two steps, so two racing
				// writers can patch in the opposite order their writes landed
				// in the store — the cache would keep the loser forever. A
				// removal commutes with other removals, so every interleaving
				// converges on a refetch of the store's winner. Marking an
				// in-flight fill stale makes its waiters refetch too.
				if !blk.filled {
					blk.stale = true
				}
				s.lru.Remove(el)
				delete(s.blocks, index)
			}
		}
		s.mu.Unlock()
		done += span
	}
}

// Size implements Object, always consulting the backing store.
func (c *BlockCache) Size() (int64, error) { return c.backing.Size() }

// Truncate implements Object, dropping every cached block (length
// changes can shorten any block).
func (c *BlockCache) Truncate(n int64) error {
	if err := c.backing.Truncate(n); err != nil {
		return err
	}
	c.InvalidateAll()
	return nil
}

// Close implements Object: it drops every cached block and closes the
// backing store, which the cache owns from construction on.
func (c *BlockCache) Close() error {
	c.InvalidateAll()
	return c.backing.Close()
}

// Invalidate discards cached blocks overlapping [off, off+length), used when
// a remote-update notification reports external modification.
func (c *BlockCache) Invalidate(off, length int64) {
	if length <= 0 {
		return
	}
	first := off / int64(c.blockSize)
	last := (off + length - 1) / int64(c.blockSize)
	for i := first; i <= last; i++ {
		s := c.shard(i)
		s.mu.Lock()
		if el, ok := s.blocks[i]; ok {
			if blk, bok := el.Value.(*cachedBlock); bok && !blk.filled {
				blk.stale = true // in-flight fill must not serve stale bytes
			}
			s.lru.Remove(el)
			delete(s.blocks, i)
			s.stats.Invalidations++
		}
		s.mu.Unlock()
	}
}

// SetEpoch advances the cache's validity epoch to e, invalidating every
// block tagged with an earlier epoch in O(1). Epochs are monotonic: a value
// at or below the current epoch is a no-op, so out-of-order lease grants
// cannot resurrect invalidated entries. Dead entries are reaped lazily on
// the next access (counted as Invalidations there) or by eviction.
func (c *BlockCache) SetEpoch(e uint64) {
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Epoch returns the cache's current validity epoch.
func (c *BlockCache) Epoch() uint64 { return c.epoch.Load() }

// ResetEpoch rebases the cache onto a NEW epoch regime: the epoch is set to e
// unconditionally — backwards included — and every cached block is discarded.
// SetEpoch's monotonicity assumes all epochs come from one issuer; when the
// issuer changes (a client re-leasing from a different replica, or from a
// server that restarted and reset its counters, each numbering epochs
// independently), old tags are not comparable with new values and could
// collide with them numerically, so nothing cached under the old regime may
// survive the switch. In-flight fills that began under the old regime are
// marked stale by the invalidation sweep, so their bytes are discarded even
// if their tag happens to equal e.
func (c *BlockCache) ResetEpoch(e uint64) {
	c.epoch.Store(e)
	c.InvalidateAll()
}

// InvalidateAll discards every cached block.
func (c *BlockCache) InvalidateAll() {
	for _, s := range c.shards {
		s.mu.Lock()
		s.stats.Invalidations += int64(s.lru.Len())
		for el := s.lru.Front(); el != nil; el = el.Next() {
			if blk, ok := el.Value.(*cachedBlock); ok && !blk.filled {
				blk.stale = true
			}
		}
		s.lru.Init()
		s.blocks = make(map[int64]*list.Element, s.capacity)
		s.mu.Unlock()
	}
}

// Len returns the number of blocks currently cached across all shards.
func (c *BlockCache) Len() int {
	total := 0
	for _, s := range c.shards {
		s.mu.Lock()
		total += s.lru.Len()
		s.mu.Unlock()
	}
	return total
}
