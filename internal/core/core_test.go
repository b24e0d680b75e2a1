package core_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/remote"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// TestMain registers the built-in programs and, when this binary was
// re-executed as a sentinel subprocess, becomes that sentinel instead of
// running tests.
func TestMain(m *testing.M) {
	program.RegisterAll()
	core.Register(slowOpen{})
	core.RunChildIfRequested()
	os.Exit(m.Run())
}

// slowOpen is passthrough behind an Open that takes the manifest's
// "opendelay" (a Go duration) to finish, standing in for a program whose
// open copies a large or slow remote object.
type slowOpen struct{}

func (slowOpen) Name() string { return "test:slowopen" }

func (slowOpen) Open(env *core.Env) (core.Handler, error) {
	d, err := time.ParseDuration(env.Param("opendelay", "0s"))
	if err != nil {
		return nil, err
	}
	time.Sleep(d)
	return program.Passthrough{}.Open(env)
}

// createAF writes an active-file manifest (plus data part) into a temp dir.
func createAF(t *testing.T, m vfs.Manifest) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, m); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	return path
}

func seedData(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(vfs.DataPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readData(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(vfs.DataPath(path))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestParseStrategy(t *testing.T) {
	tests := []struct {
		give    string
		want    core.Strategy
		wantErr bool
	}{
		{give: "", want: core.StrategyThread},
		{give: "process", want: core.StrategyProcess},
		{give: "procctl", want: core.StrategyProcCtl},
		{give: "process-plus-control", want: core.StrategyProcCtl},
		{give: "thread", want: core.StrategyThread},
		{give: "dll-with-thread", want: core.StrategyThread},
		{give: "direct", want: core.StrategyDirect},
		{give: "dll-only", want: core.StrategyDirect},
		{give: "DIRECT", want: core.StrategyDirect},
		{give: "kernel", wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := core.ParseStrategy(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Errorf("ParseStrategy(%q) succeeded", tt.give)
				}
				return
			}
			if err != nil || got != tt.want {
				t.Errorf("ParseStrategy(%q) = (%v, %v), want %v", tt.give, got, err, tt.want)
			}
		})
	}
}

func TestStrategyProperties(t *testing.T) {
	tests := []struct {
		give     core.Strategy
		wantStr  string
		wantsPos bool
	}{
		{core.StrategyProcess, "process", false},
		{core.StrategyProcCtl, "procctl", true},
		{core.StrategyThread, "thread", true},
		{core.StrategyDirect, "direct", true},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.wantStr {
			t.Errorf("String() = %q, want %q", got, tt.wantStr)
		}
		if got := tt.give.SupportsPositioning(); got != tt.wantsPos {
			t.Errorf("%v.SupportsPositioning() = %v, want %v", tt.give, got, tt.wantsPos)
		}
		if !tt.give.Valid() {
			t.Errorf("%v not Valid", tt.give)
		}
	}
	if core.Strategy(0).Valid() {
		t.Error("Strategy(0) reported Valid")
	}
}

// positionedStrategies are the strategies supporting the full file API.
var positionedStrategies = []core.Strategy{
	core.StrategyProcCtl,
	core.StrategyThread,
	core.StrategyDirect,
}

func TestPositionedStrategiesFullFileAPI(t *testing.T) {
	for _, strategy := range positionedStrategies {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "disk",
			})
			h, err := core.Open(path, core.Options{Strategy: strategy})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer h.Close()

			if h.Strategy() != strategy {
				t.Errorf("Strategy() = %v", h.Strategy())
			}

			// Sequential write advances the offset.
			if n, err := h.Write([]byte("hello, ")); n != 7 || err != nil {
				t.Fatalf("Write = (%d, %v)", n, err)
			}
			if n, err := h.Write([]byte("world")); n != 5 || err != nil {
				t.Fatalf("Write = (%d, %v)", n, err)
			}
			// Seek home and stream it back.
			if pos, err := h.Seek(0, io.SeekStart); pos != 0 || err != nil {
				t.Fatalf("Seek = (%d, %v)", pos, err)
			}
			got := make([]byte, 12)
			if _, err := io.ReadFull(h, got); err != nil || string(got) != "hello, world" {
				t.Fatalf("ReadFull = (%q, %v)", got, err)
			}
			// GetFileSize equivalent.
			if size, err := h.Size(); size != 12 || err != nil {
				t.Errorf("Size = (%d, %v), want 12", size, err)
			}
			// Positioned I/O does not disturb the offset.
			if _, err := h.WriteAt([]byte("WORLD"), 7); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			buf := make([]byte, 5)
			if _, err := h.ReadAt(buf, 7); err != nil || string(buf) != "WORLD" {
				t.Fatalf("ReadAt = (%q, %v)", buf, err)
			}
			// Seek relative to end.
			if pos, err := h.Seek(-5, io.SeekEnd); pos != 7 || err != nil {
				t.Fatalf("SeekEnd = (%d, %v)", pos, err)
			}
			if _, err := io.ReadFull(h, buf); err != nil || string(buf) != "WORLD" {
				t.Fatalf("read after SeekEnd = (%q, %v)", buf, err)
			}
			// Truncate and verify.
			if err := h.Truncate(5); err != nil {
				t.Fatalf("Truncate: %v", err)
			}
			if size, err := h.Size(); size != 5 || err != nil {
				t.Errorf("Size after truncate = (%d, %v)", size, err)
			}
			if err := h.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := readData(t, path); string(got) != "hello" {
				t.Errorf("data part = %q, want %q", got, "hello")
			}
		})
	}
}

func TestProcessStrategyStreamsExistingContent(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	})
	seedData(t, path, []byte("streamed through a real subprocess"))

	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer h.Close()

	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if string(got) != "streamed through a real subprocess" {
		t.Errorf("stream = %q", got)
	}
}

func TestProcessStrategyWriteStream(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := h.Write([]byte("written via pipes")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := readData(t, path); string(got) != "written via pipes" {
		t.Errorf("data part = %q", got)
	}
}

func TestProcessStrategyDropsControlOps(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer h.Close()

	if _, err := h.Seek(0, io.SeekStart); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("Seek err = %v, want ErrUnsupported", err)
	}
	if _, err := h.Size(); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("Size err = %v, want ErrUnsupported", err)
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("ReadAt err = %v, want ErrUnsupported", err)
	}
	if _, err := h.WriteAt([]byte("x"), 0); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("WriteAt err = %v, want ErrUnsupported", err)
	}
	if err := h.Truncate(0); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("Truncate err = %v, want ErrUnsupported", err)
	}
	if err := h.Sync(); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("Sync err = %v, want ErrUnsupported", err)
	}
}

func TestHandleClosedSemantics(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := h.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := h.Read(make([]byte, 1)); !errors.Is(err, wire.ErrClosed) {
		t.Errorf("Read after close err = %v, want ErrClosed", err)
	}
	if _, err := h.Write([]byte("x")); !errors.Is(err, wire.ErrClosed) {
		t.Errorf("Write after close err = %v, want ErrClosed", err)
	}
}

func TestOpenErrors(t *testing.T) {
	t.Run("missing manifest", func(t *testing.T) {
		if _, err := core.Open(filepath.Join(t.TempDir(), "none.af"), core.Options{}); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("err = %v, want os.ErrNotExist", err)
		}
	})
	t.Run("unknown program", func(t *testing.T) {
		path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "no-such-program"}})
		if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); !errors.Is(err, core.ErrUnknownProgram) {
			t.Errorf("err = %v, want ErrUnknownProgram", err)
		}
	})
	t.Run("invalid strategy override", func(t *testing.T) {
		path := createAF(t, vfs.Manifest{Program: vfs.ProgramSpec{Name: "passthrough"}})
		if _, err := core.Open(path, core.Options{Strategy: core.Strategy(99)}); err == nil {
			t.Error("Open with bogus strategy succeeded")
		}
	})
}

func TestManifestStrategyDefaultUsed(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program:  vfs.ProgramSpec{Name: "passthrough"},
		Strategy: "direct",
		Cache:    "memory",
	})
	h, err := core.Open(path, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if h.Strategy() != core.StrategyDirect {
		t.Errorf("Strategy = %v, want direct (from manifest)", h.Strategy())
	}
}

func TestRemoteSourcePassthrough(t *testing.T) {
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Put("obj", []byte("remote bytes"))

	for _, cacheMode := range []string{"none", "disk", "memory"} {
		cacheMode := cacheMode
		t.Run(cacheMode, func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   cacheMode,
				Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
			})
			h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			got := make([]byte, 12)
			if _, err := io.ReadFull(h, got); err != nil || string(got) != "remote bytes" {
				t.Fatalf("read = (%q, %v)", got, err)
			}
			// Write back and flush; the remote object must see it.
			if _, err := h.WriteAt([]byte("REMOTE"), 0); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			if err := h.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			obj, _ := srv.Get("obj")
			if string(obj) != "REMOTE bytes" {
				t.Errorf("remote object = %q", obj)
			}
			srv.Put("obj", []byte("remote bytes")) // reset for the next mode
		})
	}
}

func TestDiskCacheDecouplesFromRemote(t *testing.T) {
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Put("obj", []byte("version-1"))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "obj"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	// Remote changes after open; the session keeps serving its cached copy
	// (Figure 5 path 2: the sentinel interacts with its local file).
	srv.Put("obj", []byte("version-2"))
	got := make([]byte, 9)
	if _, err := io.ReadFull(h, got); err != nil || string(got) != "version-1" {
		t.Errorf("read = (%q, %v), want cached version-1", got, err)
	}
}

func TestFilterProgramUppercasesStorage(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "filter:upper"},
		Cache:   "disk",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("Mixed Case 42")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if _, err := h.ReadAt(got, 0); err != nil || string(got) != "mixed case 42" {
		t.Errorf("application view = (%q, %v)", got, err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if stored := readData(t, path); string(stored) != "MIXED CASE 42" {
		t.Errorf("stored form = %q, want uppercase", stored)
	}
}

func TestFilterProgramParamDriven(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "filter"},
		Cache:   "disk",
		Params:  map[string]string{"filter": "xor:k3y"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	plaintext := []byte("confidential payload")
	if _, err := h.Write(plaintext); err != nil {
		t.Fatal(err)
	}
	back := make([]byte, len(plaintext))
	if _, err := h.ReadAt(back, 0); err != nil || !bytes.Equal(back, plaintext) {
		t.Errorf("decrypted view = (%q, %v)", back, err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	stored := readData(t, path)
	if bytes.Equal(stored, plaintext) {
		t.Error("stored form is plaintext; cipher filter did not run")
	}
}

func TestCompressProgramRoundTrip(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "compress"},
	})
	content := bytes.Repeat([]byte("log line with heavy repetition\n"), 200)

	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write(content); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	stored := readData(t, path)
	if !bytes.HasPrefix(stored, []byte("AFLZ")) {
		t.Fatalf("stored form lacks codec magic: %q...", stored[:8])
	}
	if len(stored) >= len(content) {
		t.Errorf("stored %d bytes for %d content bytes; expected compression", len(stored), len(content))
	}

	// Reopen: the application sees the plain content, unaware of compression.
	h2, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	got, err := io.ReadAll(h2)
	if err != nil || !bytes.Equal(got, content) {
		t.Errorf("reopened view: %d bytes, err %v; want %d bytes", len(got), err, len(content))
	}
}

func TestGenerateProgramDeterministicStream(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "generate"},
		NoData:  true,
		Params:  map[string]string{"size": "4096", "seed": "7"},
	})
	read := func(strategy core.Strategy) []byte {
		h, err := core.Open(path, core.Options{Strategy: strategy})
		if err != nil {
			t.Fatalf("Open(%v): %v", strategy, err)
		}
		defer h.Close()
		data, err := io.ReadAll(h)
		if err != nil {
			t.Fatalf("ReadAll(%v): %v", strategy, err)
		}
		return data
	}
	first := read(core.StrategyDirect)
	second := read(core.StrategyThread)
	if len(first) != 4096 {
		t.Fatalf("generated %d bytes, want 4096", len(first))
	}
	if !bytes.Equal(first, second) {
		t.Error("generated stream differs across opens")
	}
	// And through a real subprocess, the same bytes arrive.
	third := read(core.StrategyProcess)
	if !bytes.Equal(first, third) {
		t.Error("subprocess stream differs from in-process stream")
	}
}

func TestProcCtlDeferredWriteErrorSurfacesOnSync(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "generate"}, // rejects writes
		NoData:  true,
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcCtl})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// The write itself streams without acknowledgement...
	if _, err := h.Write([]byte("doomed")); err != nil {
		t.Fatalf("Write returned synchronously: %v", err)
	}
	// ...and the failure arrives at the next synchronous barrier.
	if err := h.Sync(); err == nil {
		t.Error("Sync returned nil, want the deferred write failure")
	}
}

func TestMultipleSimultaneousOpens(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "disk",
	})
	seedData(t, path, []byte("shared"))

	// "If multiple user processes open the same active file, multiple
	// sentinels are created" — each handle gets an independent session.
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

	buf1 := make([]byte, 6)
	buf2 := make([]byte, 6)
	if _, err := h1.ReadAt(buf1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.ReadAt(buf2, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf1) != "shared" || string(buf2) != "shared" {
		t.Errorf("views = %q, %q", buf1, buf2)
	}
}

func TestHandleStats(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	if got := h.Stats(); got != (core.Stats{}) {
		t.Errorf("fresh stats = %+v", got)
	}
	h.Write([]byte("12345"))        // 5 bytes written
	h.ReadAt(make([]byte, 3), 0)    // 3 bytes read
	h.ReadAt(make([]byte, 10), 100) // error read (EOF)
	got := h.Stats()
	if got.Writes != 1 || got.BytesWritten != 5 {
		t.Errorf("writes = %d/%d bytes", got.Writes, got.BytesWritten)
	}
	if got.Reads != 2 || got.BytesRead != 3 {
		t.Errorf("reads = %d/%d bytes", got.Reads, got.BytesRead)
	}
	if got.Errors != 1 {
		t.Errorf("errors = %d, want 1 (the EOF read)", got.Errors)
	}
}

func TestExternalSentinelExecutable(t *testing.T) {
	// An active file whose manifest names an explicit sentinel executable
	// runs that image instead of re-executing the opener — the paper's
	// "the active part is an executable" arrangement. The test binary
	// doubles as the external image (its TestMain handles child mode).
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough", Exec: self},
		Cache:   "disk",
	})
	seedData(t, path, []byte("served by an external sentinel image"))

	for _, strategy := range []core.Strategy{core.StrategyProcess, core.StrategyProcCtl} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			h, err := core.Open(path, core.Options{Strategy: strategy})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer h.Close()
			got, err := io.ReadAll(h)
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if string(got) != "served by an external sentinel image" {
				t.Errorf("content = %q", got)
			}
		})
	}
}

func TestRegistryIsolation(t *testing.T) {
	reg := core.NewRegistry()
	reg.Register(program.Passthrough{})
	if _, err := reg.Lookup("passthrough"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Lookup("filter:upper"); !errors.Is(err, core.ErrUnknownProgram) {
		t.Errorf("Lookup in private registry err = %v, want ErrUnknownProgram", err)
	}
	names := reg.Names()
	if len(names) != 1 || names[0] != "passthrough" {
		t.Errorf("Names = %v", names)
	}

	// A private registry can back Open, independent of the default.
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "memory",
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
}

func TestDefaultRegistryContents(t *testing.T) {
	names := core.ProgramNames()
	for _, want := range []string{"passthrough", "filter", "filter:upper", "compress", "generate"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("default registry missing %q (have %v)", want, names)
		}
	}
	if !strings.Contains(strings.Join(names, ","), "filter:rot13") {
		t.Errorf("default registry missing filter:rot13: %v", names)
	}
}
