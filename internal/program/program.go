// Package program provides the built-in sentinel programs that ship with
// the library, covering the paper's four fundamental actions (§3): data
// generation ("generate"), input/output filtering ("filter:*" and
// "compress"), and — together with the services in internal/remote —
// aggregation and distribution (registered by their own packages). Programs
// are plain implementations of core.Program; RegisterAll installs them into
// the default registry.
package program

import (
	"repro/internal/core"

	// Register the network-crossing backend kinds ("remote", "http",
	// "fleet") in every binary that links the built-in programs: each entry
	// point, and so each re-exec'd sentinel child, which is the same binary,
	// so a manifest's store resolves identically on both sides of a fork.
	_ "repro/internal/backend/remotefs"
	_ "repro/internal/fleet"
)

// RegisterAll installs every built-in program into the default core
// registry. Call it once at startup (main or TestMain); it is idempotent.
func RegisterAll() {
	for _, p := range All() {
		core.Register(p)
	}
}

// All returns fresh instances of every built-in program.
func All() []core.Program {
	return []core.Program{
		Passthrough{},
		Filter{FilterName: "upper"},
		Filter{FilterName: "lower"},
		Filter{FilterName: "rot13"},
		Filter{}, // configurable via the manifest "filter" param
		Compress{},
		Generate{},
		Quotes{},
		Inbox{},
		Outbox{},
		Logger{},
		RegistryFile{},
		Cached{},
		AccessLog{},
		Locking{},
	}
}
