package intermediary_test

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/examples/intermediary"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/remote"
	"repro/internal/vfs"
)

func TestMain(m *testing.M) {
	program.RegisterAll()
	core.RunChildIfRequested()
	os.Exit(m.Run())
}

func TestStageAndCollect(t *testing.T) {
	mem := backend.NewMem()
	mem.Put("obj", []byte("remote content"))
	src, _ := mem.Open("obj")
	path := filepath.Join(t.TempDir(), "staged.txt")
	if err := intermediary.Stage(src, path); err != nil {
		t.Fatalf("Stage: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "remote content" {
		t.Fatalf("staged = (%q, %v)", got, err)
	}

	if err := os.WriteFile(path, []byte("edited locally"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := intermediary.Collect(path, src); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if got, _ := mem.Get("obj"); string(got) != "edited locally" {
		t.Errorf("source after Collect = %q", got)
	}
}

// TestDecouplingProblem reproduces the paper's §1 critique as executable
// fact: with an intermediary, "an end application that searches through a
// collection of distributed databases cannot see changes in these
// databases"; with an active file it can.
func TestDecouplingProblem(t *testing.T) {
	dir := t.TempDir()

	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Put("db", []byte("version-1"))

	// --- Intermediary approach: stage, then the source changes.
	staged := filepath.Join(dir, "staged.txt")
	client, err := remote.Dial(addr, "db")
	if err != nil {
		t.Fatal(err)
	}
	if err := intermediary.Stage(client, staged); err != nil {
		t.Fatal(err)
	}
	client.Close()

	srv.Put("db", []byte("version-2")) // the source moves on

	stale, err := os.ReadFile(staged)
	if err != nil {
		t.Fatal(err)
	}
	if string(stale) != "version-1" {
		t.Fatalf("staged copy = %q", stale)
	}
	// The legacy application reads version-1 forever: decoupled.

	// --- Active file approach: the sentinel talks to the live source.
	afPath := filepath.Join(dir, "db.af")
	if err := vfs.Create(afPath, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "db"},
	}); err != nil {
		t.Fatal(err)
	}
	h, err := core.Open(afPath, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	live, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if string(live) != "version-2" {
		t.Errorf("active file read = %q, want the live version-2", live)
	}

	// And mid-session updates are visible too.
	srv.Put("db", []byte("version-3"))
	buf := make([]byte, 9)
	if _, err := h.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "version-3" {
		t.Errorf("mid-session read = %q, want version-3", buf)
	}
}

// TestWritePropagationGap shows the reverse decoupling: application writes
// through an intermediary only reach the source at the explicit Collect,
// while an active file propagates them as part of normal file use.
func TestWritePropagationGap(t *testing.T) {
	dir := t.TempDir()
	srv := remote.NewFileServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Put("out", nil)

	// Intermediary: a local edit is invisible remotely until Collect runs.
	staged := filepath.Join(dir, "out.txt")
	client, err := remote.Dial(addr, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := intermediary.Stage(client, staged); err != nil {
		t.Fatal(err)
	}
	os.WriteFile(staged, []byte("result"), 0o644)
	if obj, _ := srv.Get("out"); len(obj) != 0 {
		t.Fatalf("remote saw the write without Collect: %q", obj)
	}

	// Active file: the same write goes through the sentinel to the source.
	afPath := filepath.Join(dir, "out.af")
	if err := vfs.Create(afPath, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "passthrough"},
		Cache:   "none",
		Source:  vfs.SourceSpec{Kind: "tcp", Addr: addr, Path: "out"},
	}); err != nil {
		t.Fatal(err)
	}
	h, err := core.Open(afPath, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write([]byte("result")); err != nil {
		t.Fatal(err)
	}
	obj, _ := srv.Get("out")
	if string(obj) != "result" {
		t.Errorf("remote after active write = %q", obj)
	}
}

func TestStageErrors(t *testing.T) {
	mem := backend.NewMem()
	mem.Put("x", []byte("x"))
	gone, _ := mem.Open("x")
	gone.Close() // every operation on a closed source fails
	if err := intermediary.Stage(gone, filepath.Join(t.TempDir(), "s.txt")); err == nil {
		t.Error("Stage with failing source succeeded")
	}
	empty, _ := mem.Open("empty")
	if err := intermediary.Stage(empty, "/nonexistent-dir/x.txt"); err == nil {
		t.Error("Stage into unwritable path succeeded")
	}
}

func TestCollectErrors(t *testing.T) {
	empty, _ := backend.NewMem().Open("empty")
	if err := intermediary.Collect(filepath.Join(t.TempDir(), "missing.txt"), empty); err == nil {
		t.Error("Collect of missing staging file succeeded")
	}
}
