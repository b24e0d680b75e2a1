package backend

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cache"
)

// NativeFS is the local-filesystem backend: objects are plain files directly
// under a root directory, mirroring the nativefs layout of general-purpose
// VFS stacks. Opening a missing object creates its file. Object names are
// flat — path separators and dot-traversal are rejected so a spec like
// "nativefs:/srv/data" can never reach outside its root.
type NativeFS struct {
	root string
}

var _ Backend = (*NativeFS)(nil)
var _ Stater = (*NativeFS)(nil)
var _ Lister = (*NativeFS)(nil)

// NewNativeFS returns a backend rooted at dir, creating it if necessary.
func NewNativeFS(dir string) (*NativeFS, error) {
	if dir == "" {
		return nil, errors.New("backend: nativefs wants a root directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("nativefs root: %w", err)
	}
	return &NativeFS{root: dir}, nil
}

// Root returns the backing directory.
func (n *NativeFS) Root() string { return n.root }

// Kind implements Backend.
func (n *NativeFS) Kind() string { return "nativefs" }

// Caps implements Backend.
func (n *NativeFS) Caps() Caps { return CapWrite | CapStat | CapList }

// path validates an object name and maps it under the root.
func (n *NativeFS) path(name string) (string, error) {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("backend: bad object name %q", name)
	}
	return filepath.Join(n.root, name), nil
}

// Open implements Backend, creating the file when missing.
func (n *NativeFS) Open(name string) (Object, error) {
	path, err := n.path(name)
	if err != nil {
		return nil, err
	}
	f, err := cache.OpenFile(path)
	if err != nil {
		return nil, fmt.Errorf("nativefs open %q: %w", name, err)
	}
	return f, nil
}

// Stat implements Stater.
func (n *NativeFS) Stat(name string) (Info, error) {
	path, err := n.path(name)
	if err != nil {
		return Info{}, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
		}
		return Info{}, fmt.Errorf("nativefs stat %q: %w", name, err)
	}
	if fi.IsDir() {
		return Info{}, fmt.Errorf("%w: %q is a directory", ErrNotFound, name)
	}
	return Info{Name: name, Size: fi.Size()}, nil
}

// List implements Lister: the regular files directly under the root, in
// directory (sorted) order.
func (n *NativeFS) List() ([]Info, error) {
	entries, err := os.ReadDir(n.root)
	if err != nil {
		return nil, fmt.Errorf("nativefs list: %w", err)
	}
	var out []Info
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent remove
		}
		out = append(out, Info{Name: e.Name(), Size: fi.Size()})
	}
	return out, nil
}

// Close implements Backend; open objects hold their own descriptors.
func (n *NativeFS) Close() error { return nil }
