// Package loglock implements the concurrent, intelligent logging manager of
// §3: "several processes log events using the same log file. As the sentinel
// process receives each log record, it locks the file, writes the record and
// unlocks the file. The processes generating the logs do not need to know
// about log file locking." The lock is flock(2) on the log's own
// descriptor: the kernel keeps it per open file description, so it excludes
// goroutines and processes alike and is freed when its holder dies.
package loglock

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"syscall"
)

// Manager serializes appends to one log file across processes.
type Manager struct {
	path string
}

// New returns a manager for the log at path.
func New(path string) *Manager {
	return &Manager{path: path}
}

// lock opens the log with flag and takes flock(how) on it. Compact replaces
// the log by rename, so a descriptor granted the lock after waiting through
// a compaction may name the unlinked old log; lock then reopens the path.
func (m *Manager) lock(flag, how int) (*os.File, error) {
	for {
		f, err := os.OpenFile(m.path, flag, 0o644)
		if err != nil {
			return nil, fmt.Errorf("open log: %w", err)
		}
		if err := flock(f, how); err != nil {
			f.Close()
			return nil, fmt.Errorf("lock log: %w", err)
		}
		held, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("stat log: %w", err)
		}
		cur, err := os.Stat(m.path)
		if err == nil && os.SameFile(held, cur) {
			return f, nil
		}
		f.Close()
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("stat log: %w", err)
		}
	}
}

// flock takes how on f, waiting for a conflicting holder.
func flock(f *os.File, how int) error {
	for {
		err := syscall.Flock(int(f.Fd()), how)
		if err != syscall.EINTR {
			return err
		}
	}
}

// Append adds one record to the log under the lock, ensuring it ends with a
// newline so records never interleave mid-line.
func (m *Manager) Append(record []byte) error {
	f, err := m.lock(os.O_CREATE|os.O_APPEND|os.O_WRONLY, syscall.LOCK_EX)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(record); err != nil {
		return fmt.Errorf("append record: %w", err)
	}
	if len(record) == 0 || record[len(record)-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			return fmt.Errorf("terminate record: %w", err)
		}
	}
	return nil
}

// Contents returns the current log bytes, read under a shared lock so no
// record is seen half-written.
func (m *Manager) Contents() ([]byte, error) {
	f, err := m.lock(os.O_RDONLY, syscall.LOCK_SH)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// Compact is the sentinel's background cleanup: under the lock, it rewrites
// the log keeping only the most recent keep records. The rewrite is
// committed by rename, so a crash leaves either the old log or the new one.
func (m *Manager) Compact(keep int) error {
	if keep < 0 {
		return fmt.Errorf("loglock: negative keep %d", keep)
	}
	f, err := m.lock(os.O_RDONLY, syscall.LOCK_EX)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()

	data, err := io.ReadAll(f)
	if err != nil {
		return fmt.Errorf("read log: %w", err)
	}
	lines := splitRecords(data)
	if len(lines) <= keep {
		return nil
	}
	var out bytes.Buffer
	for _, line := range lines[len(lines)-keep:] {
		out.Write(line)
		out.WriteByte('\n')
	}
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, out.Bytes(), 0o644); err != nil {
		return fmt.Errorf("write compacted log: %w", err)
	}
	if err := os.Rename(tmp, m.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit compacted log: %w", err)
	}
	return nil
}

// Records returns the individual log records.
func (m *Manager) Records() ([][]byte, error) {
	data, err := m.Contents()
	if err != nil {
		return nil, err
	}
	return splitRecords(data), nil
}

func splitRecords(data []byte) [][]byte {
	data = bytes.TrimSuffix(data, []byte("\n"))
	if len(data) == 0 {
		return nil
	}
	return bytes.Split(data, []byte("\n"))
}
