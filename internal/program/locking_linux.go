package program

import (
	"fmt"
	"os"
	"syscall"

	"repro/internal/wire"
)

// fOFDSetLK is F_OFD_SETLK, which package syscall defines for loong64 only.
const fOFDSetLK = 37

// lockRange sets (lock) or clears (!lock) a write lock on [off, off+n) of
// f's open file description without waiting; a range held through another
// description answers wire.ErrBusy.
func lockRange(f *os.File, off, n int64, lock bool) error {
	lk := syscall.Flock_t{Type: syscall.F_UNLCK, Start: off, Len: n}
	if lock {
		lk.Type = syscall.F_WRLCK
	}
	switch err := syscall.FcntlFlock(f.Fd(), fOFDSetLK, &lk); err {
	case nil:
		return nil
	case syscall.EAGAIN, syscall.EACCES:
		return fmt.Errorf("locking: [%d,%d) held by another session: %w", off, off+n, wire.ErrBusy)
	default:
		return fmt.Errorf("locking: fcntl: %w", err)
	}
}
