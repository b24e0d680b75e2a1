// Package vfs implements the on-disk representation of active files and the
// directory operations over them.
//
// The NT prototype packages an active file's two passive components — the
// data part and the active part (sentinel program) — into a single file using
// NTFS alternate streams, so that copying or renaming moves both. Offline
// and cross-platform, we substitute a manifest file: path ending in ".af"
// holds a small JSON manifest naming the sentinel program and its
// parameters, and the data part lives beside it at "<path>.data". Directory
// operations (copy, rename, remove) act on both components, preserving the
// paper's §2.1 semantics ("a copy operation produces a second active file
// with the same data and executable components as the first one").
package vfs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/backend"
	"repro/internal/cache"
)

// Extension marks a path as an active file.
const Extension = ".af"

// dataSuffix is appended to the manifest path to locate the data part.
const dataSuffix = ".data"

// Manifest format errors.
var (
	ErrNotActive   = errors.New("vfs: not an active file path")
	ErrBadManifest = errors.New("vfs: malformed manifest")
	ErrExists      = errors.New("vfs: active file already exists")
)

// Well-known manifest parameter names understood by the core layer (all
// other params are program-specific).
const (
	// ParamBackend holds a backend spec ("mem", "nativefs:/dir",
	// "errorfs(rate=0.1):mem", "remote:host:port", ...) selecting the storage
	// backend the sentinel binds instead of a Source transport. The spec
	// grammar is checked when the manifest loads; the kind is resolved at
	// open time against the opener's backend registry.
	ParamBackend = "backend"
	// ParamObject names the object within the ParamBackend backend; when
	// unset, Source.Path is used.
	ParamObject = "object"
)

// manifestVersion is the current on-disk manifest format version.
const manifestVersion = 1

// ProgramSpec names the active part: either a program registered in-process
// (thread and direct strategies, and process strategies via re-exec of the
// current binary) or an external executable.
type ProgramSpec struct {
	// Name of a registered sentinel program. Used by in-process strategies
	// and, when Exec is empty, passed to a re-exec'd copy of the current
	// binary for process strategies.
	Name string `json:"name,omitempty"`
	// Exec is the path of a standalone sentinel executable for the process
	// strategies. Empty means re-exec the current binary.
	Exec string `json:"exec,omitempty"`
	// Args are extra arguments for the executable.
	Args []string `json:"args,omitempty"`
}

// SourceSpec describes the remote information source the sentinel binds to.
// It is another spelling of a ParamBackend binding (see Manifest.Store).
type SourceSpec struct {
	// Kind selects the transport: "" (none), "tcp" (the block file service,
	// backend "remote:<Addr>") or "http" (any HTTP server honouring Range,
	// backend "http:<Addr>"). Any other kind loads, and fails at open.
	Kind string `json:"kind,omitempty"`
	// Addr is the network address for network kinds.
	Addr string `json:"addr,omitempty"`
	// Path is the object name within the source.
	Path string `json:"path,omitempty"`
}

// Manifest is the persisted description of an active file.
type Manifest struct {
	Version int         `json:"version"`
	Program ProgramSpec `json:"program"`
	// Strategy is the default implementation strategy hint:
	// "process", "procctl", "thread", or "direct". Empty means the opener
	// decides.
	Strategy string `json:"strategy,omitempty"`
	// Cache selects the Figure 5 critical path: "none", "disk", or "memory".
	Cache string `json:"cache,omitempty"`
	// Source is the remote binding, if any.
	Source SourceSpec `json:"source,omitempty"`
	// Params carries program-specific configuration.
	Params map[string]string `json:"params,omitempty"`
	// NoData marks active files with an empty data part (the paper's §2.2
	// "an active file can have an empty data part"): no data file is
	// created, and the sentinel synthesizes all content.
	NoData bool `json:"noData,omitempty"`
}

// Store returns the store the manifest binds the sentinel to: a backend
// spec (see internal/backend) and the object within it, or three zero
// values when it binds none. The ParamBackend param takes precedence, naming
// its object by ParamObject or else Source.Path. A Source is the same
// binding spelled another way: kind "tcp" is "remote:<Addr>" and "http" is
// "http:<Addr>", naming Source.Path less any leading '/'.
func (m *Manifest) Store() (spec, object string, err error) {
	if spec := m.Params[ParamBackend]; spec != "" {
		object := m.Params[ParamObject]
		if object == "" {
			object = m.Source.Path
		}
		if object == "" {
			return "", "", fmt.Errorf("backend %q binds no object (set object= or source.path)", spec)
		}
		return spec, object, nil
	}
	switch m.Source.Kind {
	case "":
		return "", "", nil
	case "tcp":
		spec = "remote:" + m.Source.Addr
	case "http":
		spec = "http:" + m.Source.Addr
	default:
		return "", "", fmt.Errorf("unknown source kind %q", m.Source.Kind)
	}
	return spec, strings.TrimPrefix(m.Source.Path, "/"), nil
}

// validate checks structural invariants of a decoded manifest.
func (m *Manifest) validate() error {
	if m.Version <= 0 || m.Version > manifestVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadManifest, m.Version)
	}
	if m.Program.Name == "" && m.Program.Exec == "" {
		return fmt.Errorf("%w: manifest names no sentinel program", ErrBadManifest)
	}
	switch m.Strategy {
	case "", "process", "procctl", "thread", "direct":
	default:
		return fmt.Errorf("%w: unknown strategy %q", ErrBadManifest, m.Strategy)
	}
	switch m.Cache {
	case "", "none", "disk", "memory":
	default:
		return fmt.Errorf("%w: unknown cache mode %q", ErrBadManifest, m.Cache)
	}
	if spec, ok := m.Params[ParamBackend]; ok {
		// Grammar only: whether the kind exists is the opener's concern —
		// kinds register by linkage, which this decoder cannot see.
		if _, _, _, err := backend.ParseSpec(spec); err != nil {
			return fmt.Errorf("%w: backend param: %v", ErrBadManifest, err)
		}
	}
	return nil
}

// IsActive reports whether path names an active file by extension, the same
// check the paper's OpenFile stub performs.
func IsActive(path string) bool {
	return strings.HasSuffix(path, Extension)
}

// DataPath returns the path of the data part belonging to the manifest at
// path.
func DataPath(path string) string {
	return path + dataSuffix
}

// OpenData opens (creating if necessary) the data part of the active file at
// manifestPath, the object sentinels read and write when the data part is
// the content or its disk cache (Figure 5, path 2).
func OpenData(manifestPath string) (*cache.File, error) {
	if !IsActive(manifestPath) {
		return nil, fmt.Errorf("%w: %q", ErrNotActive, manifestPath)
	}
	f, err := cache.OpenFile(DataPath(manifestPath))
	if err != nil {
		return nil, fmt.Errorf("open data part: %w", err)
	}
	return f, nil
}

// Create writes a new active file: the manifest at path plus an empty data
// part (unless m.NoData). It fails with ErrExists if the manifest already
// exists and ErrNotActive if path lacks the ".af" extension.
func Create(path string, m Manifest) error {
	if !IsActive(path) {
		return fmt.Errorf("%w: %q", ErrNotActive, path)
	}
	if m.Version == 0 {
		m.Version = manifestVersion
	}
	if err := m.validate(); err != nil {
		return err
	}
	if _, err := os.Lstat(path); err == nil {
		return fmt.Errorf("%w: %q", ErrExists, path)
	}
	if err := writeManifest(path, &m); err != nil {
		return err
	}
	if m.NoData {
		return nil
	}
	f, err := os.OpenFile(DataPath(path), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("create data part: %w", err)
	}
	return f.Close()
}

// Load reads and validates the manifest at path.
func Load(path string) (Manifest, error) {
	if !IsActive(path) {
		return Manifest{}, fmt.Errorf("%w: %q", ErrNotActive, path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return Manifest{}, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	if err := m.validate(); err != nil {
		return Manifest{}, err
	}
	return m, nil
}

// Update rewrites the manifest at path, preserving the data part.
func Update(path string, m Manifest) error {
	if !IsActive(path) {
		return fmt.Errorf("%w: %q", ErrNotActive, path)
	}
	if m.Version == 0 {
		m.Version = manifestVersion
	}
	if err := m.validate(); err != nil {
		return err
	}
	return writeManifest(path, &m)
}

func writeManifest(path string, m *Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("encode manifest: %w", err)
	}
	raw = append(raw, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("write manifest: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit manifest: %w", err)
	}
	return nil
}

// Copy duplicates the active file at src to dst: both the manifest and the
// data part are copied, so dst is an independent active file with the same
// components.
func Copy(src, dst string) error {
	m, err := Load(src)
	if err != nil {
		return err
	}
	if !IsActive(dst) {
		return fmt.Errorf("%w: %q", ErrNotActive, dst)
	}
	if _, err := os.Lstat(dst); err == nil {
		return fmt.Errorf("%w: %q", ErrExists, dst)
	}
	if err := copyFile(src, dst); err != nil {
		return err
	}
	if m.NoData {
		return nil
	}
	if err := copyFile(DataPath(src), DataPath(dst)); err != nil {
		os.Remove(dst)
		return err
	}
	return nil
}

// Rename moves the active file at src to dst, carrying the data part along.
func Rename(src, dst string) error {
	m, err := Load(src)
	if err != nil {
		return err
	}
	if !IsActive(dst) {
		return fmt.Errorf("%w: %q", ErrNotActive, dst)
	}
	if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("rename manifest: %w", err)
	}
	if m.NoData {
		return nil
	}
	if err := os.Rename(DataPath(src), DataPath(dst)); err != nil {
		// Roll the manifest back so the two parts stay together.
		os.Rename(dst, src)
		return fmt.Errorf("rename data part: %w", err)
	}
	return nil
}

// Remove deletes the active file at path: manifest and data part.
func Remove(path string) error {
	m, err := Load(path)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("remove manifest: %w", err)
	}
	if m.NoData {
		return nil
	}
	if err := os.Remove(DataPath(path)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("remove data part: %w", err)
	}
	return nil
}

// List returns the active-file manifests directly inside dir, sorted by
// directory order.
func List(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("list %q: %w", dir, err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && IsActive(e.Name()) {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("copy open %q: %w", src, err)
	}
	defer in.Close()
	out, err := os.OpenFile(dst, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("copy create %q: %w", dst, err)
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		os.Remove(dst)
		return fmt.Errorf("copy %q -> %q: %w", src, dst, err)
	}
	if err := out.Close(); err != nil {
		os.Remove(dst)
		return fmt.Errorf("copy close %q: %w", dst, err)
	}
	return nil
}
