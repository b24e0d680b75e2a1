// Package activefile is the public API of the active-files library, a Go
// reproduction of "Active Files: A Mechanism for Integrating Legacy
// Applications into Distributed Systems" (ICDCS 2000).
//
// An active file looks and behaves exactly like a regular file, but opening
// it starts a sentinel — a program that filters all data entering and
// leaving the file and can aggregate from or distribute to remote
// information sources. Legacy code written against the File interface (or
// plain io interfaces) needs no changes:
//
//	def := activefile.Definition{
//	    Program: activefile.ProgramSpec{Name: "filter:upper"},
//	    Cache:   activefile.CacheDisk,
//	}
//	if err := activefile.Create("notes.af", def); err != nil { ... }
//	f, err := activefile.Open("notes.af")   // starts the sentinel
//	f.Write([]byte("hello"))                // filtered transparently
//
// The package also exposes the four implementation strategies the paper
// evaluates (process, process-plus-control, thread, direct), selectable per
// file or per open.
package activefile

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vfs"
)

// Strategy selects how the sentinel is instantiated, trading overhead
// against capability (§4 of the paper).
type Strategy int

// Available strategies. StrategyDefault defers to the file's manifest.
const (
	StrategyDefault Strategy = iota
	// StrategyProcess runs the sentinel as a separate process with two data
	// pipes; seek/size/positioned operations are unsupported.
	StrategyProcess
	// StrategyProcessControl adds a control channel, supporting the full
	// file API across a process boundary.
	StrategyProcessControl
	// StrategyThread runs the sentinel as a goroutine in this process.
	StrategyThread
	// StrategyDirect dispatches operations as plain calls into the program.
	StrategyDirect
)

// String returns the manifest spelling of the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyDefault:
		return "default"
	case StrategyProcess:
		return "process"
	case StrategyProcessControl:
		return "procctl"
	case StrategyThread:
		return "thread"
	case StrategyDirect:
		return "direct"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

func (s Strategy) toCore() (core.Strategy, error) {
	switch s {
	case StrategyDefault:
		return 0, nil
	case StrategyProcess:
		return core.StrategyProcess, nil
	case StrategyProcessControl:
		return core.StrategyProcCtl, nil
	case StrategyThread:
		return core.StrategyThread, nil
	case StrategyDirect:
		return core.StrategyDirect, nil
	default:
		return 0, fmt.Errorf("activefile: invalid strategy %d", int(s))
	}
}

func strategyFromCore(s core.Strategy) Strategy {
	switch s {
	case core.StrategyProcess:
		return StrategyProcess
	case core.StrategyProcCtl:
		return StrategyProcessControl
	case core.StrategyThread:
		return StrategyThread
	case core.StrategyDirect:
		return StrategyDirect
	default:
		return StrategyDefault
	}
}

// CacheMode selects the sentinel's caching path (Figure 5 of the paper).
type CacheMode int

// Available cache modes. CacheDefault behaves as CacheNone.
const (
	CacheDefault CacheMode = iota
	// CacheNone forwards every operation to the source.
	CacheNone
	// CacheDisk uses the file's on-disk data part as the cache.
	CacheDisk
	// CacheMemory keeps the cache in the sentinel's memory.
	CacheMemory
)

// String returns the manifest spelling of the cache mode.
func (c CacheMode) String() string {
	switch c {
	case CacheDefault, CacheNone:
		return "none"
	case CacheDisk:
		return "disk"
	case CacheMemory:
		return "memory"
	default:
		return fmt.Sprintf("cache(%d)", int(c))
	}
}

func cacheFromString(s string) CacheMode {
	switch s {
	case "disk":
		return CacheDisk
	case "memory", "mem":
		return CacheMemory
	default:
		return CacheNone
	}
}

// ProgramSpec names the sentinel program — the file's active part.
type ProgramSpec struct {
	// Name of a registered program ("passthrough", "filter:upper",
	// "compress", "quotes", "inbox", "outbox", "logger", "registryfile",
	// "generate", or one added with sentinel.Register).
	Name string
	// Exec optionally points at a standalone sentinel executable used by the
	// process strategies instead of re-executing the current binary.
	Exec string
	// Args are extra arguments for that executable.
	Args []string
}

// SourceSpec binds an active file to a remote information source.
type SourceSpec struct {
	// Kind is the transport: "tcp" reaches the library's block file
	// service, "http" any server honouring Range requests.
	Kind string
	// Addr is the network address.
	Addr string
	// Path is the object name within the source.
	Path string
}

// Definition describes an active file to be created: program, default
// strategy, caching path, remote source, and program parameters.
type Definition struct {
	Program  ProgramSpec
	Strategy Strategy
	Cache    CacheMode
	Source   SourceSpec
	Params   map[string]string
	// NoData creates the file without a data part; the sentinel synthesizes
	// all content (data-generation programs).
	NoData bool
}

func (d Definition) toManifest() (vfs.Manifest, error) {
	m := vfs.Manifest{
		Program: vfs.ProgramSpec{Name: d.Program.Name, Exec: d.Program.Exec, Args: d.Program.Args},
		Source:  vfs.SourceSpec{Kind: d.Source.Kind, Addr: d.Source.Addr, Path: d.Source.Path},
		Params:  d.Params,
		NoData:  d.NoData,
	}
	if d.Strategy != StrategyDefault {
		cs, err := d.Strategy.toCore()
		if err != nil {
			return vfs.Manifest{}, err
		}
		m.Strategy = cs.String()
	}
	if d.Cache != CacheDefault {
		m.Cache = d.Cache.String()
	}
	return m, nil
}

func definitionFromManifest(m vfs.Manifest) Definition {
	d := Definition{
		Program: ProgramSpec{Name: m.Program.Name, Exec: m.Program.Exec, Args: m.Program.Args},
		Source:  SourceSpec{Kind: m.Source.Kind, Addr: m.Source.Addr, Path: m.Source.Path},
		Params:  m.Params,
		NoData:  m.NoData,
		Cache:   cacheFromString(m.Cache),
	}
	if cs, err := core.ParseStrategy(m.Strategy); err == nil && m.Strategy != "" {
		d.Strategy = strategyFromCore(cs)
	}
	return d
}

// Create writes a new active file at path (which must end in ".af"): its
// manifest plus, unless NoData, an empty data part.
func Create(path string, def Definition) error {
	m, err := def.toManifest()
	if err != nil {
		return err
	}
	return vfs.Create(path, m)
}

// Stat returns the definition of the active file at path.
func Stat(path string) (Definition, error) {
	m, err := vfs.Load(path)
	if err != nil {
		return Definition{}, err
	}
	return definitionFromManifest(m), nil
}

// IsActive reports whether path names an active file (by extension, the
// same check the interposition stubs perform).
func IsActive(path string) bool { return vfs.IsActive(path) }

// DataPath returns the location of an active file's data part.
func DataPath(path string) string { return vfs.DataPath(path) }

// Copy duplicates the active file at src to dst: manifest and data part
// both, yielding an independent active file with the same components.
func Copy(src, dst string) error { return vfs.Copy(src, dst) }

// Rename moves the active file at src to dst, carrying the data part along.
func Rename(src, dst string) error { return vfs.Rename(src, dst) }

// Remove deletes the active file at path: manifest and data part.
func Remove(path string) error { return vfs.Remove(path) }

// List returns the active files directly inside dir.
func List(dir string) ([]string, error) { return vfs.List(dir) }
