package program_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/remote"
	"repro/internal/vfs"
)

func startFileServer(t *testing.T) (*remote.FileServer, string) {
	t.Helper()
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestCachedProgramServesHitsLocally(t *testing.T) {
	srv, addr := startFileServer(t)
	content := bytes.Repeat([]byte("block data "), 1024)
	srv.Put("obj", content)

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "cached"},
		NoData:  true,
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
		// Transport read-ahead is off so the hit/miss counts below measure
		// ONLY the program's LRU cache: the thread transport's async window
		// fills would otherwise reach the cache on racy schedules (reliably
		// so under -race, where they land before the stats snapshot).
		Params: map[string]string{"blocksize": "256", "blocks": "8", "readahead": "false"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	buf := make([]byte, 256)
	for i := 0; i < 10; i++ { // same block, repeatedly
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf, content[:256]) {
		t.Error("cached read returned wrong data")
	}
	stats, err := h.Control([]byte("stats"))
	if err != nil {
		t.Fatalf("Control(stats): %v", err)
	}
	text := string(stats)
	if !strings.Contains(text, "hits=9") || !strings.Contains(text, "misses=1") {
		t.Errorf("stats = %q, want 9 hits / 1 miss", text)
	}
}

func TestCachedProgramInvalidation(t *testing.T) {
	srv, addr := startFileServer(t)
	srv.Put("obj", bytes.Repeat([]byte("a"), 512))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "cached"},
		NoData:  true,
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
		Params:  map[string]string{"blocksize": "128", "blocks": "4"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	buf := make([]byte, 128)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}

	// Another party updates the remote source; the cached copy is stale
	// until the invalidation notification arrives.
	srv.Put("obj", bytes.Repeat([]byte("b"), 512))
	h.ReadAt(buf, 0)
	if buf[0] != 'a' {
		t.Fatal("expected stale cached read before invalidation")
	}
	if _, err := h.Control([]byte("invalidate")); err != nil {
		t.Fatal(err)
	}
	h.ReadAt(buf, 0)
	if buf[0] != 'b' {
		t.Error("read still stale after invalidation")
	}
}

func TestCachedProgramWriteThrough(t *testing.T) {
	srv, addr := startFileServer(t)
	srv.Put("obj", make([]byte, 256))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "cached"},
		NoData:  true,
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.WriteAt([]byte("through"), 8); err != nil {
		t.Fatal(err)
	}
	obj, _ := srv.Get("obj")
	if string(obj[8:15]) != "through" {
		t.Errorf("remote object = %q", obj[8:15])
	}
}

func TestCachedProgramPollingInvalidation(t *testing.T) {
	// With poll set, the sentinel notices remote updates on its own — no
	// explicit invalidate control needed.
	srv, addr := startFileServer(t)
	srv.Put("obj", bytes.Repeat([]byte("a"), 256))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "cached"},
		NoData:  true,
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
		Params:  map[string]string{"blocksize": "128", "poll": "10ms"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	buf := make([]byte, 4)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	srv.Put("obj", bytes.Repeat([]byte("b"), 256))

	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := h.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		if buf[0] == 'b' {
			break // poller invalidated; fresh content visible
		}
		if time.Now().After(deadline) {
			t.Fatal("polling never invalidated the stale cache")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCachedProgramBadPoll(t *testing.T) {
	_, addr := startFileServer(t)
	for _, poll := range []string{"soon", "-1s", "0"} {
		path := createAF(t, vfs.Manifest{
			Program: vfs.ProgramSpec{Name: "cached"},
			NoData:  true,
			Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "o"},
			Params:  map[string]string{"poll": poll},
		})
		if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
			t.Errorf("Open with poll=%q succeeded", poll)
		}
	}
}

func TestCachedProgramRequiresSource(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "cached"},
		NoData:  true,
	})
	if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
		t.Error("Open without source succeeded")
	}
}

func TestCachedProgramBadParams(t *testing.T) {
	_, addr := startFileServer(t)
	for _, params := range []map[string]string{
		{"blocksize": "0"},
		{"blocksize": "abc"},
		{"blocks": "-1"},
	} {
		path := createAF(t, vfs.Manifest{
			Program: vfs.ProgramSpec{Name: "cached"},
			NoData:  true,
			Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "o"},
			Params:  params,
		})
		if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
			t.Errorf("Open with params %v succeeded", params)
		}
	}
}

func TestHTTPSourceBackedActiveFile(t *testing.T) {
	// The §3 aggregation use with a standard protocol: the sentinel proxies
	// an HTTP object; the application sees a local file. The Path names the
	// object under the server's root, with or without a leading '/'.
	obj := remote.NewObjectServer()
	srv := httptest.NewServer(obj)
	defer srv.Close()

	addr := strings.TrimPrefix(srv.URL, "http://")
	for _, cacheMode := range []string{"none", "memory"} {
		cacheMode := cacheMode
		t.Run(cacheMode, func(t *testing.T) {
			for _, srcPath := range []string{"/pages/doc.txt", "doc.txt"} {
				key := "/" + strings.TrimPrefix(srcPath, "/")
				obj.Put(key, []byte("served over http"))
				path := createAF(t, vfs.Manifest{
					Program: vfs.ProgramSpec{Name: "passthrough"},
					Cache:   cacheMode,
					NoData:  cacheMode != "disk",
					Source:  vfs.SourceSpec{Kind: "http", Addr: addr, Path: srcPath},
				})
				h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
				if err != nil {
					t.Fatalf("Open %s: %v", srcPath, err)
				}
				got, err := io.ReadAll(h)
				if err != nil || string(got) != "served over http" {
					t.Fatalf("read %s = (%q, %v)", srcPath, got, err)
				}
				// Writes propagate back over HTTP PUT (on close for cached mode).
				if _, err := h.WriteAt([]byte("SERVED"), 0); err != nil {
					t.Fatal(err)
				}
				if err := h.Close(); err != nil {
					t.Fatal(err)
				}
				body, _ := obj.Get(key)
				if string(body) != "SERVED over http" {
					t.Errorf("http object %s = %q", key, body)
				}
			}
		})
	}
}

func TestAccessLogRecordsEveryOperation(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "accesslog"},
		Cache:   "disk",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("sensitive"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 9)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Size(); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// The application saw a perfectly ordinary file...
	if string(buf) != "sensitive" {
		t.Errorf("view = %q", buf)
	}
	// ...while the audit trail recorded every access.
	audit, err := os.ReadFile(path + ".access.log")
	if err != nil {
		t.Fatalf("audit log: %v", err)
	}
	text := string(audit)
	for _, want := range []string{"open", "write off=0 len=9", "read off=0 len=9", "size", "close"} {
		if !strings.Contains(text, want) {
			t.Errorf("audit log missing %q:\n%s", want, text)
		}
	}
}

func TestAccessLogCustomPath(t *testing.T) {
	dir := t.TempDir()
	logPath := dir + "/custom-audit.log"
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "accesslog"},
		Cache:   "memory",
		Params:  map[string]string{"log": logPath},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := os.Stat(logPath); err != nil {
		t.Errorf("custom audit log missing: %v", err)
	}
}

func TestLockingProgramCoordinatesSessions(t *testing.T) {
	// Two sessions of the same active file — two sentinels — synchronize
	// through the file's shared lock table (§2.2).
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "locking"},
		Cache:   "disk",
	})
	h1, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()

	if err := h1.Lock(0, 100); err != nil {
		t.Fatalf("h1.Lock: %v", err)
	}
	if err := h2.Lock(50, 100); err == nil {
		t.Error("h2 acquired an overlapping range")
	}
	if err := h2.Lock(100, 100); err != nil {
		t.Errorf("h2.Lock(disjoint): %v", err)
	}
	if err := h1.Unlock(0, 100); err != nil {
		t.Fatalf("h1.Unlock: %v", err)
	}
	if err := h2.Lock(0, 100); err != nil {
		t.Errorf("h2.Lock after release: %v", err)
	}
}

func TestLockingProgramReleasesOnClose(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "locking"},
		Cache:   "memory",
	})
	h1, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	if err := h1.Lock(0, 10); err != nil {
		t.Fatal(err)
	}
	// The application exits without unlocking; its session close frees the
	// range for others.
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := h2.Lock(0, 10); err != nil {
		t.Errorf("range leaked past session close: %v", err)
	}
}

func TestLockingProgramIsStillATransparentFile(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "locking"},
		Cache:   "disk",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write([]byte("locked content")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 14)
	if _, err := h.ReadAt(buf, 0); err != nil || string(buf) != "locked content" {
		t.Errorf("read = (%q, %v)", buf, err)
	}
}

func TestReadAheadServesSequentialReads(t *testing.T) {
	// Functional check of the §4.2 eager-injection option: sequential reads
	// through a read-ahead procctl sentinel return exactly the file's
	// contents, including the short block at EOF.
	content := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1024 bytes
	content = append(content, []byte("tail")...)            // non-aligned end

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
		Params:  map[string]string{"readahead": "true"},
	})
	if err := os.WriteFile(vfs.DataPath(path), content, 0o644); err != nil {
		t.Fatal(err)
	}

	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("read %d bytes, want %d; data mismatch", len(got), len(content))
	}
}

func TestReadAheadInvalidatedByWrites(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
		Params:  map[string]string{"readahead": "true"},
	})
	if err := os.WriteFile(vfs.DataPath(path), []byte("AAAABBBBCCCC"), 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	buf := make([]byte, 4)
	if _, err := h.ReadAt(buf, 0); err != nil { // prefetches offset 4..8
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte("XXXX"), 4); err != nil { // overlaps prefetch
		t.Fatal(err)
	}
	if err := h.Sync(); err != nil { // barrier: the async write lands
		t.Fatal(err)
	}
	if _, err := h.ReadAt(buf, 4); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "XXXX" {
		t.Errorf("read after overlapping write = %q, want fresh data", buf)
	}
}

func TestReadAheadRandomAccessStaysCorrect(t *testing.T) {
	content := bytes.Repeat([]byte("abcdefgh"), 128)
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
		Params:  map[string]string{"readahead": "true"},
	})
	if err := os.WriteFile(vfs.DataPath(path), content, 0o644); err != nil {
		t.Fatal(err)
	}
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Non-sequential offsets must bypass the prefetch, never serve it.
	buf := make([]byte, 16)
	for _, off := range []int64{0, 512, 16, 16, 960, 0, 32} {
		if _, err := h.ReadAt(buf, off); err != nil {
			t.Fatalf("ReadAt(%d): %v", off, err)
		}
		if !bytes.Equal(buf, content[off:off+16]) {
			t.Fatalf("ReadAt(%d) = %q, want %q", off, buf, content[off:off+16])
		}
	}
}
