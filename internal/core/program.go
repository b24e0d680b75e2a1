package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/vfs"
)

// Handler serves the file operations of one open session of an active file.
// It is the sentinel program's per-session state: what §2.2 calls "the
// sentinel process", abstracted away from how operations reach it (pipes,
// rendezvous, or direct calls — the engine supplies the transport).
//
// By default handler calls are serialized by the engine, so handlers need
// not be internally synchronized against their own methods. A handler whose
// methods ARE safe for concurrent invocation can say so by implementing
// ConcurrentHandler; the engine then lets independent session operations
// reach it in parallel.
type Handler interface {
	// ReadAt fills p with session content at offset off.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt stores p at offset off.
	WriteAt(p []byte, off int64) (int, error)
	// Size returns the current content length.
	Size() (int64, error)
	// Truncate sets the content length.
	Truncate(n int64) error
	// Sync flushes program state (caches, remote propagation).
	Sync() error
	// Close ends the session, flushing and releasing resources.
	Close() error
}

// Locker is optionally implemented by handlers that support byte-range
// locks (the §3 concurrent logging use).
type Locker interface {
	Lock(off, n int64) error
	Unlock(off, n int64) error
}

// Controller is optionally implemented by handlers accepting
// program-specific out-of-band commands.
type Controller interface {
	Control(req []byte) ([]byte, error)
}

// ConcurrentHandler is optionally implemented by handlers whose methods are
// safe for concurrent invocation (internally synchronized, or delegating to
// stores that are). Declaring it lifts the engine's per-session
// serialization, so operations that block — a remote source round trip, a
// disk read — overlap instead of queueing. Close is still exclusive: the
// engine quiesces in-flight calls before closing the handler.
type ConcurrentHandler interface {
	// ConcurrentSafe reports whether this handler instance tolerates
	// concurrent method calls. It is consulted once, when the session opens.
	ConcurrentSafe() bool
}

// Program is a sentinel program — the active part of an active file. One
// Program serves many sessions; Open is called once per application open,
// mirroring "the sentinel process is started ... when a user process opens
// the active file" (§2.2).
type Program interface {
	// Name is the identifier stored in manifests.
	Name() string
	// Open begins a session against the environment described by env.
	Open(env *Env) (Handler, error)
}

// Env is everything a program may bind to when a session opens: the
// manifest, the data part, and the remote source.
type Env struct {
	// Path is the manifest location on disk.
	Path string
	// Manifest is the loaded description of the active file.
	Manifest vfs.Manifest
}

// Param returns a program parameter from the manifest, or def when unset.
func (e *Env) Param(key, def string) string {
	if v, ok := e.Manifest.Params[key]; ok {
		return v
	}
	return def
}

// OpenSource opens the store the manifest binds (vfs.Manifest.Store): the
// backend= param, or the Source spelled as one. Backends cover the remote
// transports — "remote:<addr>" (Source kind "tcp") and "http:<base>" (kind
// "http") — and local (mem, nativefs), policy (rofs) and fault-injection
// (errorfs) stores, composable by nesting specs. It returns (nil, nil) when
// the manifest binds no store.
func (e *Env) OpenSource() (backend.Object, error) {
	spec, name, err := e.Manifest.Store()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if spec == "" {
		return nil, nil
	}
	b, err := backend.Open(spec)
	if err != nil {
		return nil, fmt.Errorf("core: backend %q: %w", spec, err)
	}
	obj, err := b.Open(name)
	if err != nil {
		b.Close()
		return nil, fmt.Errorf("core: backend %q open %q: %w", spec, name, err)
	}
	return &backendSource{Object: obj, owner: b}, nil
}

// OpenData opens the active file's data part.
func (e *Env) OpenData() (*cache.File, error) {
	if e.Manifest.NoData {
		return nil, errors.New("core: active file has no data part")
	}
	return vfs.OpenData(e.Path)
}

// OpenBackend assembles the storage backend realizing the manifest's cache
// mode (the Figure 5 critical paths):
//
//   - none:   operations pass through to the remote source (or, without a
//     source, directly to the data part);
//   - disk:   the data part is the cache; it is populated from the source on
//     open and flushed back on sync/close;
//   - memory: a buffer in the sentinel's memory is the cache, populated from
//     the source if bound, else from the data part.
func (e *Env) OpenBackend() (cache.Backend, error) {
	mode, err := cache.ParseMode(e.Manifest.Cache)
	if err != nil {
		return nil, err
	}
	source, err := e.OpenSource()
	if err != nil {
		return nil, err
	}

	switch mode {
	case cache.ModeNone:
		if source != nil {
			return cache.NewPassthrough(source)
		}
		data, err := e.OpenData()
		if err != nil {
			return nil, err
		}
		return cache.NewPassthrough(data)

	case cache.ModeDisk:
		data, err := e.OpenData()
		if err != nil {
			closeSource(source)
			return nil, err
		}
		backend, err := cache.NewLocal(data, source)
		if err != nil {
			data.Close()
			closeSource(source)
			return nil, err
		}
		if source != nil {
			if err := backend.Populate(); err != nil {
				backend.Close()
				return nil, err
			}
		}
		return backend, nil

	case cache.ModeMemory:
		persistent := source
		if persistent == nil && !e.Manifest.NoData {
			data, err := e.OpenData()
			if err != nil {
				return nil, err
			}
			persistent = data
		}
		backend, err := cache.NewLocal(cache.NewMemStore(), persistent)
		if err != nil {
			closeSource(source)
			return nil, err
		}
		if persistent != nil {
			if err := backend.Populate(); err != nil {
				backend.Close()
				return nil, err
			}
		}
		return backend, nil

	default:
		return nil, fmt.Errorf("core: unhandled cache mode %v", mode)
	}
}

func closeSource(s backend.Object) {
	if s != nil {
		s.Close()
	}
}

// backendSource ties a backend's lifetime to the one object a session opened
// on it: closing the source closes the object, then the backend it came
// from.
type backendSource struct {
	backend.Object
	owner backend.Backend
}

var _ backend.Object = (*backendSource)(nil)

func (s *backendSource) Close() error {
	err := s.Object.Close()
	if cerr := s.owner.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrUnknownProgram reports a manifest naming an unregistered program.
var ErrUnknownProgram = errors.New("core: unknown sentinel program")

// Registry maps program names to implementations, like a driver registry.
type Registry struct {
	mu       sync.RWMutex
	programs map[string]Program
}

// NewRegistry returns an empty program registry.
func NewRegistry() *Registry {
	return &Registry{programs: make(map[string]Program)}
}

// Register adds p under its name, replacing any previous registration.
func (r *Registry) Register(p Program) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.programs[p.Name()] = p
}

// Lookup returns the named program.
func (r *Registry) Lookup(name string) (Program, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.programs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProgram, name)
	}
	return p, nil
}

// Names returns the sorted registered program names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.programs))
	for name := range r.programs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// defaultRegistry is the process-wide registry used by Open and the
// re-exec'd sentinel children; programs register at startup, mirroring how
// every NT sentinel executable links the active-file library.
var defaultRegistry = NewRegistry()

// Register adds a program to the default registry.
func Register(p Program) { defaultRegistry.Register(p) }

// LookupProgram finds a program in the default registry.
func LookupProgram(name string) (Program, error) { return defaultRegistry.Lookup(name) }

// ProgramNames lists the default registry's contents.
func ProgramNames() []string { return defaultRegistry.Names() }
