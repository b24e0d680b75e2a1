//go:build !linux

package program

import (
	"os"

	"repro/internal/wire"
)

// lockRange answers wire.ErrUnsupported: open-file-description locks are
// Linux-only, and classic process-owned locks would not exclude sessions
// that share a sentinel.
func lockRange(*os.File, int64, int64, bool) error { return wire.ErrUnsupported }
