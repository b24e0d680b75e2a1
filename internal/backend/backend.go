// Package backend defines the pluggable storage seam behind the remote tier:
// a Backend is a named collection of random-access objects, the thing a
// sentinel (or a FileServer) binds when an active file names an information
// source. The paper's sentinel mediates between a legacy application and "a
// remote service"; this package makes the service side a first-class,
// swappable layer, so every new backend is a new workload for the same
// strategies and the same conformance contract.
//
// Backends are selected by spec strings so manifests and command-line flags
// can compose them textually:
//
//	mem                               in-memory object store
//	nativefs:/var/data                objects are files under a root directory
//	rofs:<inner spec>                 read-only view of another backend
//	errorfs(rate=0.01,seed=7):<spec>  deterministic fault/latency injection
//	remote:127.0.0.1:9000             dial a FileServer (package remotefs)
//
// The wrapping backends (rofs, errorfs) nest arbitrarily, e.g.
// "errorfs(rate=0.05,seed=1):rofs:nativefs:/srv/ro".
package backend

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cache"
)

// Object is one open random-access object of a backend: the one object
// contract, declared in package cache.
type Object = cache.Object

// Caps is the capability bitmask a backend advertises.
type Caps uint32

// Capability flags.
const (
	// CapWrite marks a backend whose objects accept WriteAt/Truncate.
	// Without it the backend is read-only and writes fail with ErrReadOnly.
	CapWrite Caps = 1 << iota
	// CapStat marks a backend implementing Stater.
	CapStat
	// CapList marks a backend implementing Lister.
	CapList
)

// Has reports whether every flag in want is set.
func (c Caps) Has(want Caps) bool { return c&want == want }

// String renders the bitmask as "rw+stat+list"-style text.
func (c Caps) String() string {
	var parts []string
	if c.Has(CapWrite) {
		parts = append(parts, "rw")
	} else {
		parts = append(parts, "ro")
	}
	if c.Has(CapStat) {
		parts = append(parts, "stat")
	}
	if c.Has(CapList) {
		parts = append(parts, "list")
	}
	return strings.Join(parts, "+")
}

// Info describes one object of a backend.
type Info struct {
	Name string
	Size int64
}

// Backend is a named collection of objects. Implementations must be safe for
// concurrent use; a writable backend's Open creates the object when it does
// not exist (matching a writable store), a read-only backend's Open fails
// with ErrNotFound instead.
type Backend interface {
	// Kind is the registry name of the implementation ("mem", "nativefs", …).
	Kind() string
	// Caps advertises what the backend supports.
	Caps() Caps
	// Open returns the named object. Concurrent opens of the same name see
	// the same underlying bytes.
	Open(name string) (Object, error)
	// Close releases the backend; objects already open stay usable unless
	// the implementation says otherwise.
	Close() error
}

// Stater is implemented by backends that can describe an object without
// opening it (CapStat).
type Stater interface {
	Stat(name string) (Info, error)
}

// Lister is implemented by backends that can enumerate their objects
// (CapList).
type Lister interface {
	List() ([]Info, error)
}

// Typed errors shared across implementations.
var (
	// ErrReadOnly is returned by writes and truncates on a read-only
	// backend's objects.
	ErrReadOnly = errors.New("backend: read-only")
	// ErrNotFound reports an object a read-only backend does not hold.
	ErrNotFound = errors.New("backend: object not found")
	// ErrObjectClosed is returned by operations on a closed object.
	ErrObjectClosed = cache.ErrObjectClosed
	// ErrUnknownKind reports a spec naming an unregistered backend kind.
	ErrUnknownKind = errors.New("backend: unknown kind")
	// ErrBadSpec reports a malformed backend spec string.
	ErrBadSpec = errors.New("backend: bad spec")
)

// Factory builds a backend from the parsed pieces of a spec: opts from the
// optional "(k=v,…)" group, config is everything after the kind's colon
// (which wrapping backends interpret as an inner spec).
type Factory func(opts map[string]string, config string) (Backend, error)

// registry maps kind names to factories. Built-ins register at init; other
// packages (remotefs) add kinds from their own init.
var registry = struct {
	mu        sync.RWMutex
	factories map[string]Factory
}{factories: make(map[string]Factory)}

// Register installs a factory under kind, replacing any previous one.
func Register(kind string, f Factory) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	registry.factories[kind] = f
}

// ParseSpec splits a spec into kind, options, and config without
// instantiating anything — manifest validation uses it to reject junk early.
func ParseSpec(spec string) (kind string, opts map[string]string, config string, err error) {
	rest := spec
	// Kind runs to the first '(' or ':'.
	idx := strings.IndexAny(rest, "(:")
	if idx == -1 {
		kind, rest = rest, ""
	} else {
		kind, rest = rest[:idx], rest[idx:]
	}
	if kind == "" {
		return "", nil, "", fmt.Errorf("%w: %q names no kind", ErrBadSpec, spec)
	}
	if strings.HasPrefix(rest, "(") {
		end := strings.Index(rest, ")")
		if end == -1 {
			return "", nil, "", fmt.Errorf("%w: %q: unterminated options", ErrBadSpec, spec)
		}
		opts = make(map[string]string)
		for _, pair := range strings.Split(rest[1:end], ",") {
			pair = strings.TrimSpace(pair)
			if pair == "" {
				continue
			}
			k, v, found := strings.Cut(pair, "=")
			if !found || k == "" {
				return "", nil, "", fmt.Errorf("%w: %q: option %q is not key=value", ErrBadSpec, spec, pair)
			}
			opts[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
		rest = rest[end+1:]
	}
	if rest != "" {
		if !strings.HasPrefix(rest, ":") {
			return "", nil, "", fmt.Errorf("%w: %q: expected ':' before config", ErrBadSpec, spec)
		}
		config = rest[1:]
	}
	return kind, opts, config, nil
}

// Open instantiates the backend a spec describes, consulting the registry.
func Open(spec string) (Backend, error) {
	kind, opts, config, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	registry.mu.RLock()
	f, ok := registry.factories[kind]
	var kinds []string
	if !ok {
		for k := range registry.factories {
			kinds = append(kinds, k)
		}
	}
	registry.mu.RUnlock()
	if !ok {
		sort.Strings(kinds)
		return nil, fmt.Errorf("%w: %q (registered: %s)", ErrUnknownKind, kind, strings.Join(kinds, ", "))
	}
	b, err := f(opts, config)
	if err != nil {
		return nil, fmt.Errorf("backend %q: %w", kind, err)
	}
	return b, nil
}

func init() {
	Register("mem", func(opts map[string]string, config string) (Backend, error) {
		if config != "" {
			return nil, fmt.Errorf("%w: mem takes no config, got %q", ErrBadSpec, config)
		}
		return NewMem(), nil
	})
	Register("nativefs", func(opts map[string]string, config string) (Backend, error) {
		if config == "" {
			return nil, fmt.Errorf("%w: nativefs wants a root directory (nativefs:/path)", ErrBadSpec)
		}
		return NewNativeFS(config)
	})
	Register("rofs", func(opts map[string]string, config string) (Backend, error) {
		if config == "" {
			return nil, fmt.Errorf("%w: rofs wants an inner spec (rofs:<spec>)", ErrBadSpec)
		}
		inner, err := Open(config)
		if err != nil {
			return nil, err
		}
		return NewROFS(inner), nil
	})
	Register("errorfs", func(opts map[string]string, config string) (Backend, error) {
		if config == "" {
			return nil, fmt.Errorf("%w: errorfs wants an inner spec (errorfs(rate=..):<spec>)", ErrBadSpec)
		}
		inner, err := Open(config)
		if err != nil {
			return nil, err
		}
		return NewErrorFSFromOpts(inner, opts)
	})
}
