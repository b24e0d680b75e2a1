package backend

import (
	"sort"
	"sync"

	"repro/internal/cache"
)

// Mem is the in-memory backend: named byte objects living in the process,
// each a cache.MemStore, the one in-memory object. Opening a missing object
// creates it (writable-store semantics); every open of the same name is a
// new handle on the same bytes, and closing a handle ends only that handle.
type Mem struct {
	mu      sync.RWMutex
	objects map[string]*cache.MemStore
}

var _ Backend = (*Mem)(nil)
var _ Stater = (*Mem)(nil)
var _ Lister = (*Mem)(nil)

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objects: make(map[string]*cache.MemStore)}
}

// Kind implements Backend.
func (m *Mem) Kind() string { return "mem" }

// Caps implements Backend.
func (m *Mem) Caps() Caps { return CapWrite | CapStat | CapList }

// Open implements Backend, creating the object when missing.
func (m *Mem) Open(name string) (Object, error) {
	return m.lookup(name).Open(), nil
}

// Stat implements Stater.
func (m *Mem) Stat(name string) (Info, error) {
	m.mu.RLock()
	s, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return Info{}, ErrNotFound
	}
	size, _ := s.Size()
	return Info{Name: name, Size: size}, nil
}

// List implements Lister, in sorted name order.
func (m *Mem) List() ([]Info, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Info, 0, len(m.objects))
	for name, s := range m.objects {
		size, _ := s.Size()
		out = append(out, Info{Name: name, Size: size})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Close implements Backend. Objects already open stay usable; the map is
// kept so late opens still resolve (an in-process store has nothing to
// release).
func (m *Mem) Close() error { return nil }

// Put creates or replaces the named object's contents in place, so handles
// already open on the name observe the new bytes.
func (m *Mem) Put(name string, data []byte) { m.lookup(name).Replace(data) }

// Get returns a copy of the named object's contents.
func (m *Mem) Get(name string) ([]byte, bool) {
	m.mu.RLock()
	s, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return s.Bytes(), true
}

// lookup returns the named object's store, creating it when missing. The
// map's stores are never closed: Open hands out handles on them.
func (m *Mem) lookup(name string) *cache.MemStore {
	m.mu.RLock()
	s, ok := m.objects[name]
	m.mu.RUnlock()
	if ok {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok = m.objects[name]; ok {
		return s
	}
	s = cache.NewMemStore()
	m.objects[name] = s
	return s
}
