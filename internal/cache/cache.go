// Package cache implements the caching options a sentinel can interpose
// between the application and a remote information source. These realize the
// three critical execution paths of the paper's Figure 5:
//
//	path 1 (Mode None)   — every operation goes to the remote service;
//	path 2 (Mode Disk)   — the active file's on-disk data part is the cache;
//	path 3 (Mode Memory) — the cache lives in the sentinel's memory.
//
// A frequency-based block cache (BlockCache) additionally implements the §1
// use of "caching only the most frequently accessed contents" with
// invalidation so the cache "can be kept consistent with any updates
// performed to its contents at any of the remote sources".
package cache

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode selects a caching path.
type Mode int

// Caching modes, one per Figure 5 path.
const (
	ModeNone Mode = iota + 1
	ModeDisk
	ModeMemory
)

// ParseMode maps a manifest cache string to a Mode; empty selects ModeNone.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "", "none":
		return ModeNone, nil
	case "disk":
		return ModeDisk, nil
	case "memory", "mem":
		return ModeMemory, nil
	default:
		return 0, fmt.Errorf("cache: unknown mode %q", s)
	}
}

// String returns the manifest spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeDisk:
		return "disk"
	case ModeMemory:
		return "memory"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Object is the one random-access object contract: an active file's data
// part, a remote source, a backend's objects, the in-memory store, and the
// caches layered over them all implement it, with os.File semantics at the
// boundary. Reads past the end return io.EOF, zero-length reads return
// (0, nil) even at the end, writes past the end zero-fill the gap, and after
// Close every operation fails.
type Object interface {
	io.ReaderAt
	io.WriterAt
	// Size returns the object's current length.
	Size() (int64, error)
	// Truncate sets the object's length, zero-filling on extension.
	Truncate(n int64) error
	// Close releases the object; further operations fail.
	Close() error
}

// Syncer is implemented by objects that buffer state: Sync pushes it toward
// stable storage or the remote source.
type Syncer interface {
	Sync() error
}

// Backend is what a sentinel session performs file operations against; the
// concrete type determines which Figure 5 path each operation takes. Its
// Close flushes as Sync does.
type Backend interface {
	Object
	Syncer
}

// ErrObjectClosed is returned by every operation on a closed Object: a
// MemStore handle, a File, a remote source. It is fs.ErrClosed, what a
// closed os.File answers, so one errors.Is tests any of them.
var ErrObjectClosed = fs.ErrClosed

// errNoStore reports a backend constructed without its required store.
var errNoStore = errors.New("cache: backend requires a store")

// Passthrough is the Mode None backend: it forwards every operation to the
// remote store with no local state (Figure 5, path 1).
type Passthrough struct {
	store Object
}

var _ Backend = (*Passthrough)(nil)

// NewPassthrough returns a backend forwarding directly to store.
func NewPassthrough(store Object) (*Passthrough, error) {
	if store == nil {
		return nil, errNoStore
	}
	return &Passthrough{store: store}, nil
}

// ReadAt implements Backend.
func (b *Passthrough) ReadAt(p []byte, off int64) (int, error) { return b.store.ReadAt(p, off) }

// WriteAt implements Backend.
func (b *Passthrough) WriteAt(p []byte, off int64) (int, error) { return b.store.WriteAt(p, off) }

// Size implements Backend.
func (b *Passthrough) Size() (int64, error) { return b.store.Size() }

// Truncate implements Backend.
func (b *Passthrough) Truncate(n int64) error { return b.store.Truncate(n) }

// Sync implements Backend; the remote store is always current.
func (b *Passthrough) Sync() error { return nil }

// Close implements Backend, closing the store.
func (b *Passthrough) Close() error { return b.store.Close() }

// Local is the Mode Disk / Mode Memory backend: operations hit a local store
// (the data part on disk, or a memory buffer), and writes are written back
// to a remote source on Sync/Close, off the critical path (Figure 5, paths
// 2 and 3: "the sentinel interacts with its local file rather than
// contacting the remote service"). Only what changed is written back: the
// span of local bytes written since the last Sync, and the truncation of the
// remote if the local copy was truncated (DESIGN.md §8.4).
type Local struct {
	local  Object
	remote Object // optional write-back target

	mu      sync.Mutex
	pending pending // guarded by mu

	// syncMu serializes write-backs, so a truncate taken by one Sync can
	// never land after a span pushed by a later one; it also owns buf.
	syncMu sync.Mutex
	buf    []byte // copy buffer for locals other than a MemStore
}

var _ Backend = (*Local)(nil)

// pending is the write-back a Sync owes the remote: the span [lo, hi) of
// the local copy written since the last Sync (empty when lo == hi), and the
// lowest length the local copy was truncated to, if it was.
type pending struct {
	lo, hi    int64
	truncated bool
	mark      int64
}

// widen grows the span to cover [lo, hi).
func (p *pending) widen(lo, hi int64) {
	if p.lo == p.hi {
		p.lo, p.hi = lo, hi
		return
	}
	p.lo, p.hi = min(p.lo, lo), max(p.hi, hi)
}

// truncate records a truncation of the local copy to n.
func (p *pending) truncate(n int64) {
	if !p.truncated || n < p.mark {
		p.truncated, p.mark = true, n
	}
}

// merge folds q, a write-back that failed, back into p.
func (p *pending) merge(q pending) {
	if q.lo != q.hi {
		p.widen(q.lo, q.hi)
	}
	if q.truncated {
		p.truncate(q.mark)
	}
}

// NewLocal returns a backend serving from local, writing changes back to
// remote when it is non-nil.
func NewLocal(local, remote Object) (*Local, error) {
	if local == nil {
		return nil, errNoStore
	}
	return &Local{local: local, remote: remote}, nil
}

// Populate fills the local store from the remote source, the sentinel's
// "creates a local copy" step when an active file is opened.
func (b *Local) Populate() error {
	if b.remote == nil {
		return nil
	}
	size, err := b.remote.Size()
	if err != nil {
		return fmt.Errorf("populate: remote size: %w", err)
	}
	if err := b.local.Truncate(size); err != nil {
		return fmt.Errorf("populate: truncate local: %w", err)
	}
	b.syncMu.Lock()
	defer b.syncMu.Unlock()
	if err := b.copyRange(b.local, b.remote, 0, size); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	return nil
}

// copyRange copies src's bytes [off, end) to dst at the same offsets through
// b.buf, stopping early at src's end of file. The caller holds syncMu.
func (b *Local) copyRange(dst io.WriterAt, src io.ReaderAt, off, end int64) error {
	if b.buf == nil {
		b.buf = make([]byte, 64*1024)
	}
	for off < end {
		n := int(min(int64(len(b.buf)), end-off))
		rn, rerr := src.ReadAt(b.buf[:n], off)
		if rn > 0 {
			if _, werr := dst.WriteAt(b.buf[:rn], off); werr != nil {
				return fmt.Errorf("write: %w", werr)
			}
			off += int64(rn)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				return nil
			}
			return fmt.Errorf("read: %w", rerr)
		}
		if rn == 0 {
			return nil
		}
	}
	return nil
}

// ReadAt implements Backend, serving from the local store only.
func (b *Local) ReadAt(p []byte, off int64) (int, error) { return b.local.ReadAt(p, off) }

// WriteAt implements Backend: the local store is updated on the critical
// path, and the written range joins the span the next Sync pushes. The span
// widens only after the local write has landed: widened first, a Sync racing
// this write could push the old bytes and consume the range.
func (b *Local) WriteAt(p []byte, off int64) (int, error) {
	n, err := b.local.WriteAt(p, off)
	if n > 0 && b.remote != nil {
		b.mu.Lock()
		b.pending.widen(off, off+int64(n))
		b.mu.Unlock()
	}
	return n, err
}

// Size implements Backend.
func (b *Local) Size() (int64, error) { return b.local.Size() }

// Truncate implements Backend, recording n as the remote's low-water mark.
func (b *Local) Truncate(n int64) error {
	err := b.local.Truncate(n)
	if err == nil && b.remote != nil {
		b.mu.Lock()
		b.pending.truncate(n)
		b.mu.Unlock()
	}
	return err
}

// Sync implements Backend: what changed in the local copy since the last
// Sync is written back to the remote source. A failed write-back stays
// owed, so the next Sync or Close retries it.
func (b *Local) Sync() error {
	if b.remote == nil {
		return nil
	}
	b.syncMu.Lock()
	defer b.syncMu.Unlock()
	b.mu.Lock()
	p := b.pending
	b.pending = pending{}
	b.mu.Unlock()
	if p.lo == p.hi && !p.truncated {
		return nil
	}
	if err := b.push(p); err != nil {
		b.mu.Lock()
		b.pending.merge(p)
		b.mu.Unlock()
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// push writes p back to the remote. A recorded truncation first cuts the
// remote to the low-water mark, so a range truncated away and grown again
// reads as zeros there as it does locally, and last sets the remote to the
// local length. In between, the span goes in one remote write, straight from
// a MemStore's bytes, or in buffered chunks from any other local store.
func (b *Local) push(p pending) error {
	if p.truncated {
		if err := b.remote.Truncate(p.mark); err != nil {
			return fmt.Errorf("truncate remote: %w", err)
		}
	}
	if p.lo != p.hi {
		var err error
		if m, ok := b.local.(*MemStore); ok {
			err = m.writeRangeTo(b.remote, p.lo, p.hi)
		} else {
			err = b.copyRange(b.remote, b.local, p.lo, p.hi)
		}
		if err != nil {
			return err
		}
	}
	if p.truncated {
		size, err := b.local.Size()
		if err != nil {
			return fmt.Errorf("local size: %w", err)
		}
		if err := b.remote.Truncate(size); err != nil {
			return fmt.Errorf("truncate remote: %w", err)
		}
	}
	return nil
}

// Close implements Backend, flushing dirty state first, then closing the
// local store and the remote.
func (b *Local) Close() error {
	err := b.Sync()
	if cerr := b.local.Close(); err == nil {
		err = cerr
	}
	if b.remote != nil {
		if cerr := b.remote.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MemStore is the in-memory Object: the Mode Memory local store, the mem
// backend's objects, and the session images of the encoding programs. Reads
// share an RLock, so a fan-out of parallel readers — the sharded
// BlockCache's fill path, concurrent sentinel workers, FileServer workers
// serving one hot object — does not serialize on the store.
//
// A MemStore is one handle on its bytes: Open returns another on the same
// bytes, and Close ends only the handle it is called on.
type MemStore struct {
	*memBytes
	closed atomic.Bool
}

// memBytes is the byte state the handles of one store share.
type memBytes struct {
	mu   sync.RWMutex
	data []byte
}

var _ Object = (*MemStore)(nil)

// NewMemStore returns an empty memory store.
func NewMemStore() *MemStore { return &MemStore{memBytes: &memBytes{}} }

// Open returns a new handle on the store's bytes, open whether or not m is.
func (m *MemStore) Open() *MemStore { return &MemStore{memBytes: m.memBytes} }

// Close implements Object. It closes this handle only; the bytes are shared
// with the store's other handles and go with the last reference to them.
func (m *MemStore) Close() error {
	m.closed.Store(true)
	return nil
}

// ReadAt implements Object.
func (m *MemStore) ReadAt(p []byte, off int64) (int, error) {
	if m.closed.Load() {
		return 0, ErrObjectClosed
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off < 0 {
		return 0, errors.New("cache: negative offset")
	}
	// Zero-length reads succeed at any offset, matching os.File.
	if len(p) == 0 {
		return 0, nil
	}
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt implements Object, growing the buffer as needed.
func (m *MemStore) WriteAt(p []byte, off int64) (int, error) {
	if m.closed.Load() {
		return 0, ErrObjectClosed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 {
		return 0, errors.New("cache: negative offset")
	}
	end := off + int64(len(p))
	if end > int64(len(m.data)) {
		m.resize(end)
	}
	copy(m.data[off:end], p)
	return len(p), nil
}

// writeRangeTo writes the store's bytes [lo, min(hi, size)) to w at lo in
// one call, straight from the store's slice: the read lock held across the
// call keeps writers out while w reads it.
func (m *MemStore) writeRangeTo(w io.WriterAt, lo, hi int64) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hi = min(hi, int64(len(m.data)))
	if lo >= hi {
		return nil
	}
	if _, err := w.WriteAt(m.data[lo:hi], lo); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// Size implements Object.
func (m *MemStore) Size() (int64, error) {
	if m.closed.Load() {
		return 0, ErrObjectClosed
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(len(m.data)), nil
}

// Truncate implements Object.
func (m *MemStore) Truncate(n int64) error {
	if m.closed.Load() {
		return ErrObjectClosed
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		return errors.New("cache: negative length")
	}
	m.resize(n)
	return nil
}

// Replace sets the store's contents to a copy of p in one step, so a
// concurrent reader on any handle sees either the old bytes or the new.
func (m *MemStore) Replace(p []byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resize(int64(len(p)))
	copy(m.data, p)
}

// Bytes returns a copy of the store's contents, taken in one step.
func (m *MemStore) Bytes() []byte {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]byte(nil), m.data...)
}

// resize sets the store's length to n, keeping the capacity when it
// shrinks. Growing past the capacity reallocates to at least double it, so
// a run of appends copies the store a logarithmic number of times; growing
// within it zeroes the bytes a shrink left stale there.
func (m *memBytes) resize(n int64) {
	old := int64(len(m.data))
	switch {
	case n <= old:
		m.data = m.data[:n]
	case n <= int64(cap(m.data)):
		m.data = m.data[:n]
		clear(m.data[old:])
	default:
		grown := make([]byte, n, max(n, 2*int64(cap(m.data))))
		copy(grown, m.data)
		m.data = grown
	}
}

// File is an Object over an operating-system file: an active file's data
// part, and each object of a nativefs backend. os.File's methods are safe
// for concurrent use, so File adds no lock, and after Close its operations
// fail with ErrObjectClosed, as os.File's do.
type File struct {
	f *os.File
}

var _ Object = (*File)(nil)

// OpenFile opens the file at path for reading and writing, creating it if
// it does not exist.
func OpenFile(path string) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f: f}, nil
}

// ReadAt implements Object.
func (o *File) ReadAt(p []byte, off int64) (int, error) { return o.f.ReadAt(p, off) }

// WriteAt implements Object, extending the file as needed.
func (o *File) WriteAt(p []byte, off int64) (int, error) { return o.f.WriteAt(p, off) }

// Size implements Object.
func (o *File) Size() (int64, error) {
	fi, err := o.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Truncate implements Object.
func (o *File) Truncate(n int64) error { return o.f.Truncate(n) }

// Sync implements Syncer, flushing the file to stable storage.
func (o *File) Sync() error { return o.f.Sync() }

// Close implements Object.
func (o *File) Close() error { return o.f.Close() }
