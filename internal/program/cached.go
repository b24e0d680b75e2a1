package program

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
)

// Cached is the frequency-caching sentinel of §1: the sentinel "can monitor
// how the application uses this file, caching only the most frequently
// accessed contents for performance. Moreover, the cache can be kept
// consistent with any updates performed to its contents at any of the remote
// sources." It layers an LRU block cache over the file's remote source;
// Control commands expose the cache:
//
//	stats       -> "hits=H misses=M evictions=E invalidations=I blocks=B"
//	invalidate  -> discard every cached block (a remote-update notification)
//
// Parameters: "blocksize" (bytes per block, default 4096), "blocks"
// (capacity in blocks, default 64), and "poll" (a Go duration such as
// "50ms"; when set, the sentinel watches the source in the background and
// invalidates the cache when its content signature changes, keeping the
// cache consistent without explicit notifications).
type Cached struct{}

var _ core.Program = Cached{}

// Name implements core.Program.
func (Cached) Name() string { return "cached" }

// Open implements core.Program.
func (Cached) Open(env *core.Env) (core.Handler, error) {
	blockSize, err := strconv.Atoi(env.Param("blocksize", "4096"))
	if err != nil || blockSize <= 0 {
		return nil, fmt.Errorf("cached: bad blocksize parameter %q", env.Param("blocksize", ""))
	}
	capacity, err := strconv.Atoi(env.Param("blocks", "64"))
	if err != nil || capacity <= 0 {
		return nil, fmt.Errorf("cached: bad blocks parameter %q", env.Param("blocks", ""))
	}
	source, err := env.OpenSource()
	if err != nil {
		return nil, err
	}
	if source == nil {
		return nil, errors.New("cached: requires a remote source binding")
	}
	bc, err := cache.NewBlockCache(source, blockSize, capacity)
	if err != nil {
		source.Close()
		return nil, err
	}
	h := &cachedHandler{cache: bc, source: source}
	if pollSpec := env.Param("poll", ""); pollSpec != "" {
		interval, err := time.ParseDuration(pollSpec)
		if err != nil || interval <= 0 {
			bc.Close()
			return nil, fmt.Errorf("cached: bad poll parameter %q", pollSpec)
		}
		h.startWatcher(interval)
	}
	return h, nil
}

type cachedHandler struct {
	cache  *cache.BlockCache
	source cache.Object // the cache's backing store, which the cache closes

	stop chan struct{} // nil without polling
	done chan struct{}
}

// startWatcher launches the background consistency poller. It is stopped
// (and joined) by Close.
func (h *cachedHandler) startWatcher(interval time.Duration) {
	h.stop = make(chan struct{})
	h.done = make(chan struct{})
	// The baseline is captured synchronously: the cache is empty right now,
	// so any later deviation from this signature means cached blocks may be
	// stale. Capturing it inside the goroutine would race with updates that
	// arrive between Open and the goroutine's first run.
	last, ok := h.signature()
	go func() {
		defer close(h.done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				cur, curOK := h.signature()
				if curOK && (!ok || cur != last) {
					if ok {
						h.cache.InvalidateAll()
					}
					last, ok = cur, true
				}
			case <-h.stop:
				return
			}
		}
	}()
}

// signature computes a cheap change detector over the source: its size plus
// a hash of sampled regions (head and tail).
func (h *cachedHandler) signature() (uint64, bool) {
	size, err := h.source.Size()
	if err != nil {
		return 0, false
	}
	hash := fnv.New64a()
	fmt.Fprintf(hash, "%d:", size)
	sample := make([]byte, 512)
	for _, off := range []int64{0, size - int64(len(sample))} {
		if off < 0 {
			off = 0
		}
		n, err := h.source.ReadAt(sample, off)
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, false
		}
		hash.Write(sample[:n])
		if size <= int64(len(sample)) {
			break // head covers everything
		}
	}
	return hash.Sum64(), true
}

var (
	_ core.Handler    = (*cachedHandler)(nil)
	_ core.Controller = (*cachedHandler)(nil)
)

func (h *cachedHandler) ReadAt(p []byte, off int64) (int, error) {
	return h.cache.ReadAt(p, off)
}

func (h *cachedHandler) WriteAt(p []byte, off int64) (int, error) {
	return h.cache.WriteAt(p, off) // write-through with in-place patching
}

func (h *cachedHandler) Size() (int64, error) { return h.cache.Size() }

func (h *cachedHandler) Truncate(n int64) error { return h.cache.Truncate(n) }

func (h *cachedHandler) Sync() error { return nil } // writes already went through

// Control serves cache management commands.
func (h *cachedHandler) Control(req []byte) ([]byte, error) {
	switch strings.TrimSpace(string(req)) {
	case "stats":
		st := h.cache.Stats()
		return []byte(fmt.Sprintf("hits=%d misses=%d evictions=%d invalidations=%d blocks=%d",
			st.Hits, st.Misses, st.Evictions, st.Invalidations, h.cache.Len())), nil
	case "invalidate":
		h.cache.InvalidateAll()
		return []byte("invalidated"), nil
	default:
		return nil, fmt.Errorf("cached: unknown control %q", req)
	}
}

func (h *cachedHandler) Close() error {
	if h.stop != nil {
		close(h.stop)
		<-h.done // join the watcher before releasing the source
	}
	return h.cache.Close()
}
