package program

import (
	"fmt"
	"os"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/vfs"
)

// Locking is a passthrough sentinel with byte-range locking, realizing §2.2
// ("multiple sentinels ... synchronize amongst themselves") with
// resource-centric control: the lock policy belongs to the file, not to the
// applications.
//
// Each session opens its own descriptor on the data part (the manifest for
// a NoData file) and locks through the kernel's open-file-description
// locks, so sessions exclude each other whatever sentinel serves them — a
// goroutine, a direct call, a subprocess or a shared lane sentinel. Locks
// an application never releases are dropped when its session closes or its
// sentinel dies. They follow POSIX rules: relocking a held range merges it,
// and unlocking a range the session does not hold is a no-op. A conflict
// is wire.ErrBusy. The locks are local to the host, and unsupported off
// Linux (wire.ErrUnsupported).
type Locking struct{}

var _ core.Program = Locking{}

// Name implements core.Program.
func (Locking) Name() string { return "locking" }

// Open implements core.Program.
func (Locking) Open(env *core.Env) (core.Handler, error) {
	lockPath := env.Path
	if !env.Manifest.NoData {
		lockPath = vfs.DataPath(env.Path)
	}
	lockFile, err := os.OpenFile(lockPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("locking: open lock descriptor: %w", err)
	}
	backend, err := env.OpenBackend()
	if err != nil {
		lockFile.Close()
		return nil, err
	}
	return &lockingHandler{backend: backend, lockFile: lockFile}, nil
}

type lockingHandler struct {
	backend  cache.Backend
	lockFile *os.File // this session's open file description; holds its locks
}

var (
	_ core.Handler = (*lockingHandler)(nil)
	_ core.Locker  = (*lockingHandler)(nil)
)

func (h *lockingHandler) ReadAt(p []byte, off int64) (int, error) {
	return h.backend.ReadAt(p, off)
}

func (h *lockingHandler) WriteAt(p []byte, off int64) (int, error) {
	return h.backend.WriteAt(p, off)
}

func (h *lockingHandler) Size() (int64, error) { return h.backend.Size() }

func (h *lockingHandler) Truncate(n int64) error { return h.backend.Truncate(n) }

func (h *lockingHandler) Sync() error { return h.backend.Sync() }

// Lock implements core.Locker.
func (h *lockingHandler) Lock(off, n int64) error { return h.setLock(off, n, true) }

// Unlock implements core.Locker.
func (h *lockingHandler) Unlock(off, n int64) error { return h.setLock(off, n, false) }

func (h *lockingHandler) setLock(off, n int64, lock bool) error {
	if off < 0 || n <= 0 {
		return fmt.Errorf("locking: invalid range off=%d n=%d", off, n)
	}
	return lockRange(h.lockFile, off, n, lock)
}

// Close closes the session's lock descriptor, which releases its locks.
func (h *lockingHandler) Close() error {
	err := h.backend.Close()
	if cerr := h.lockFile.Close(); err == nil {
		err = cerr
	}
	return err
}
