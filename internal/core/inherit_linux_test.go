package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// TestInheritPipeIsPollable: inheritPipe turns a descriptor handed over in
// blocking mode into a file the runtime polls. SetReadDeadline returns
// os.ErrNoDeadline on a file it cannot poll, and a deadline on a polled
// file cuts a waiting read short.
func TestInheritPipeIsPollable(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	// Fd puts the descriptor in blocking mode, as os/exec leaves the
	// descriptors a sentinel inherits; the dup shares that open file
	// description, so the flag inheritPipe sets is the one r reads with.
	fd, err := syscall.Dup(int(r.Fd()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := inheritPipe(fd, "test-pipe")
	if err != nil {
		t.Fatalf("inheritPipe: %v", err)
	}
	defer f.Close()
	if err := f.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatalf("SetReadDeadline = %v, want a polled file", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read past the deadline = %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestInheritPipeRejectsMissingFD: a descriptor the sentinel did not
// inherit is an error, not a file over nothing. Descriptors are allocated
// lowest first, so one this high is not open.
func TestInheritPipeRejectsMissingFD(t *testing.T) {
	if f, err := inheritPipe(1<<20, "missing"); err == nil {
		f.Close()
		t.Fatal("inheritPipe on an unopened descriptor succeeded")
	}
}

// TestSentinelPipesArePollable reads the open flags of every pipe a live
// sentinel inherited from /proc/<pid>/fdinfo and requires O_NONBLOCK, which
// is what puts the sentinel's waiting reads in the netpoller: a procctl
// sentinel on pipes (data in, data out, control), a plain process sentinel
// (its two stream pipes) and a lane sentinel (its control pipe, which the
// parent-liveness goroutine reads; the data pipes carry nothing there).
func TestSentinelPipesArePollable(t *testing.T) {
	t.Run("procctl", func(t *testing.T) {
		tr := newTestProcCtl(t, nil)
		defer tr.close()
		requireNonblock(t, sentinelPid(tr), childFDRead, childFDWrite, childFDCtrl)
	})
	t.Run("process", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "file.af")
		if err := vfs.Create(path, vfs.Manifest{
			Program: vfs.ProgramSpec{Name: "passthrough"},
			Cache:   "memory",
		}); err != nil {
			t.Fatalf("vfs.Create: %v", err)
		}
		// More content than a pipe holds keeps the sentinel's output
		// stream open while the test looks at it.
		if err := os.WriteFile(vfs.DataPath(path), bytes.Repeat([]byte("x"), 256<<10), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := vfs.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := newProcessTransport(path, m)
		if err != nil {
			t.Fatalf("newProcessTransport: %v", err)
		}
		defer tr.close()
		// A streamed byte proves the child wrapped its pipes.
		if _, err := tr.readAt(make([]byte, 1), 0); err != nil {
			t.Fatalf("readAt: %v", err)
		}
		requireNonblock(t, tr.proc.cmd.Process.Pid, childFDRead, childFDWrite)
	})
	t.Run("lane", func(t *testing.T) {
		requireShm(t)
		path, m := newLaneManifest(t, 2, nil)
		tr := openLane(t, path, m)
		defer tr.close()
		requireNonblock(t, sentinelPid(tr), childFDCtrl)
	})
}

// requireNonblock fails the test unless each of pid's descriptors fds is
// open with O_NONBLOCK.
func requireNonblock(t *testing.T, pid int, fds ...int) {
	t.Helper()
	for _, fd := range fds {
		flags, err := fdFlags(pid, fd)
		if err != nil {
			t.Fatal(err)
		}
		if flags&syscall.O_NONBLOCK == 0 {
			t.Errorf("sentinel fd %d flags %#o: O_NONBLOCK unset, its reads hold a P", fd, flags)
		}
	}
}

// fdFlags parses the octal "flags:" line of /proc/<pid>/fdinfo/<fd>.
func fdFlags(pid, fd int) (int, error) {
	path := fmt.Sprintf("/proc/%d/fdinfo/%d", pid, fd)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "flags:"); ok {
			flags, err := strconv.ParseInt(strings.TrimSpace(v), 8, 64)
			return int(flags), err
		}
	}
	return 0, fmt.Errorf("%s: no flags line", path)
}
