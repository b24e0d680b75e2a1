// Package sentinel is the authoring kit for sentinel programs — the active
// parts of active files. A program implements Program (a constructor) and
// Handler (the per-session operations); Register makes it available under
// its name to every implementation strategy, including sentinel
// subprocesses via MaybeChild.
//
//	type shout struct{}
//
//	func (shout) Name() string { return "shout" }
//	func (shout) Open(env *sentinel.Env) (sentinel.Handler, error) { ... }
//
//	func main() {
//	    sentinel.Register(shout{})
//	    sentinel.MaybeChild() // become a sentinel if spawned as one
//	    ...
//	}
package sentinel

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/program"
)

// Handler serves the file operations of one open session. ReadAt/WriteAt
// move content; Size/Truncate manage length; Sync flushes; Close ends the
// session. Handlers are called from a single goroutine per session.
type Handler interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Size() (int64, error)
	Truncate(n int64) error
	Sync() error
	Close() error
}

// Locker is optionally implemented by handlers supporting byte-range locks.
type Locker interface {
	Lock(off, n int64) error
	Unlock(off, n int64) error
}

// Controller is optionally implemented by handlers accepting out-of-band
// control commands.
type Controller interface {
	Control(req []byte) ([]byte, error)
}

// Program is a sentinel program: Open is called once per application open
// of an active file bound to it.
type Program interface {
	// Name is the identifier referenced by active-file definitions.
	Name() string
	// Open begins a session in the given environment.
	Open(env *Env) (Handler, error)
}

// Env describes the environment of one session: the file's definition
// parameters, its data part, and its remote source.
type Env struct {
	inner *core.Env
}

// Path returns the active file's manifest path.
func (e *Env) Path() string { return e.inner.Path }

// Param returns a program parameter from the file's definition, or def when
// unset.
func (e *Env) Param(key, def string) string { return e.inner.Param(key, def) }

// ProgramName returns the program name the file was defined with.
func (e *Env) ProgramName() string { return e.inner.Manifest.Program.Name }

// Source is a connection to the file's remote information source: a
// random-access object with ReadAt, WriteAt, Size, Truncate and Close, the
// contract an active file's data part also meets.
type Source = cache.Object

// Storage is random-access storage with flush semantics: a Source that adds
// Sync. OpenStorage returns one realizing the file's configured caching
// path.
type Storage = cache.Backend

// OpenStorage assembles the storage backend for the file's cache mode and
// source binding (the Figure 5 critical paths). Most filtering programs
// should read and write through this.
func (e *Env) OpenStorage() (Storage, error) {
	return e.inner.OpenBackend()
}

// OpenSource dials the file's remote source directly, bypassing any cache.
// It returns (nil, nil) when the definition binds no source.
func (e *Env) OpenSource() (Source, error) { return e.inner.OpenSource() }

// coreProgram adapts a public Program to the engine's interface.
type coreProgram struct {
	p Program
}

var _ core.Program = coreProgram{}

func (cp coreProgram) Name() string { return cp.p.Name() }

func (cp coreProgram) Open(env *core.Env) (core.Handler, error) {
	h, err := cp.p.Open(&Env{inner: env})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Register installs p in the default program registry, replacing any
// previous program of the same name.
func Register(p Program) {
	core.Register(coreProgram{p: p})
}

// RegisterBuiltins installs the library's built-in programs (passthrough,
// filters, compress, generate, quotes, inbox, outbox, logger,
// registryfile). Open does this automatically; standalone sentinel binaries
// call it explicitly.
func RegisterBuiltins() { program.RegisterAll() }

// MaybeChild turns this process into a sentinel if it was spawned as one by
// a process-strategy open; it never returns in that case. Any binary that
// opens active files with the process strategies must call MaybeChild early
// in main (after registering custom programs).
func MaybeChild() {
	program.RegisterAll()
	core.RunChildIfRequested()
}

// Programs returns the names of every registered program.
func Programs() []string { return core.ProgramNames() }
