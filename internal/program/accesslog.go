package program

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/loglock"
)

// AccessLog is the auditing sentinel of §3: "a file containing sensitive
// data would like to log every access from users, even if these users are
// trusted". Every operation is recorded — as a side effect invisible to the
// application — to an audit log beside the active file (or at the "log"
// parameter's path) before being served from the file's normal backend.
// Unlike the Watchdogs kernel mechanism the paper contrasts with, the
// logging policy lives entirely in this user-level program.
type AccessLog struct{}

var _ core.Program = AccessLog{}

// Name implements core.Program.
func (AccessLog) Name() string { return "accesslog" }

// Open implements core.Program.
func (AccessLog) Open(env *core.Env) (core.Handler, error) {
	logPath := env.Param("log", env.Path+".access.log")
	backend, err := env.OpenBackend()
	if err != nil {
		return nil, err
	}
	h := &accessLogHandler{
		backend: backend,
		log:     loglock.New(logPath),
	}
	h.record("open", 0, 0)
	return h, nil
}

type accessLogHandler struct {
	backend cache.Backend
	log     *loglock.Manager
}

var _ core.Handler = (*accessLogHandler)(nil)

// record appends one audit line; audit failures must not break the
// application's file access, so they are deliberately swallowed (the log
// manager waits for the lock, so contention is not a failure).
func (h *accessLogHandler) record(op string, off int64, n int) {
	line := fmt.Sprintf("%s off=%d len=%d", op, off, n)
	_ = h.log.Append([]byte(line))
}

func (h *accessLogHandler) ReadAt(p []byte, off int64) (int, error) {
	h.record("read", off, len(p))
	return h.backend.ReadAt(p, off)
}

func (h *accessLogHandler) WriteAt(p []byte, off int64) (int, error) {
	h.record("write", off, len(p))
	return h.backend.WriteAt(p, off)
}

func (h *accessLogHandler) Size() (int64, error) {
	h.record("size", 0, 0)
	return h.backend.Size()
}

func (h *accessLogHandler) Truncate(n int64) error {
	h.record("truncate", n, 0)
	return h.backend.Truncate(n)
}

func (h *accessLogHandler) Sync() error {
	h.record("sync", 0, 0)
	return h.backend.Sync()
}

func (h *accessLogHandler) Close() error {
	h.record("close", 0, 0)
	return h.backend.Close()
}
