package backend_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
	"repro/internal/faultinject"
)

// TestConformanceMem pins the full read-write contract on the in-memory
// backend.
func TestConformanceMem(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		b := backend.NewMem()
		b.Put("obj", content)
		obj, err := b.Open("obj")
		if err != nil {
			t.Fatalf("mem open: %v", err)
		}
		return obj
	})
}

// TestConformanceNativeFS pins the contract on files under a root directory.
func TestConformanceNativeFS(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		nfs, err := backend.NewNativeFS(t.TempDir())
		if err != nil {
			t.Fatalf("nativefs: %v", err)
		}
		if err := os.WriteFile(filepath.Join(nfs.Root(), "obj"), content, 0o644); err != nil {
			t.Fatalf("seed: %v", err)
		}
		obj, err := nfs.Open("obj")
		if err != nil {
			t.Fatalf("nativefs open: %v", err)
		}
		t.Cleanup(func() { obj.Close() })
		return obj
	})
}

// TestConformanceROFS pins the read-only profile on the read-only view.
func TestConformanceROFS(t *testing.T) {
	conformance.RunRO(t, func(t *testing.T, content []byte) conformance.Object {
		inner := backend.NewMem()
		inner.Put("obj", content)
		obj, err := backend.NewROFS(inner).Open("obj")
		if err != nil {
			t.Fatalf("rofs open: %v", err)
		}
		return obj
	})
}

// TestConformanceErrorFS proves the fault wrapper is semantics-preserving
// when quiet: with rate=0 the full read-write contract holds through it.
func TestConformanceErrorFS(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		inner := backend.NewMem()
		inner.Put("obj", content)
		efs := backend.NewErrorFS(inner, faultinject.NewInjector(0, nil, 1, 0))
		obj, err := efs.Open("obj")
		if err != nil {
			t.Fatalf("errorfs open: %v", err)
		}
		return obj
	})
}

// TestMemAppendsAmortize pins the cost of growing a mem object one byte at a
// time: the store doubles its capacity when it grows, so 4 096 appends
// allocate a logarithmic number of times, not once per append.
func TestMemAppendsAmortize(t *testing.T) {
	one := []byte{'x'}
	allocs := testing.AllocsPerRun(5, func() {
		obj, err := backend.NewMem().Open("log")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4096; i++ {
			if _, err := obj.WriteAt(one, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 64 {
		t.Fatalf("4096 one-byte appends cost %.0f allocations, want at most 64", allocs)
	}
}

// TestMemHandleCloseIsPerHandle pins what closing a mem object means: that
// handle's operations fail with ErrObjectClosed, while another handle on
// the same name still reads the bytes.
func TestMemHandleCloseIsPerHandle(t *testing.T) {
	b := backend.NewMem()
	b.Put("obj", []byte("data"))
	first, err := b.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	second, err := b.Open("obj")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.ReadAt(make([]byte, 4), 0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("ReadAt after Close = %v, want ErrObjectClosed", err)
	}
	if _, err := first.WriteAt([]byte("x"), 0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("WriteAt after Close = %v, want ErrObjectClosed", err)
	}
	if _, err := first.Size(); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("Size after Close = %v, want ErrObjectClosed", err)
	}
	if err := first.Truncate(0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("Truncate after Close = %v, want ErrObjectClosed", err)
	}
	buf := make([]byte, 4)
	if n, err := second.ReadAt(buf, 0); err != nil || string(buf[:n]) != "data" {
		t.Errorf("second handle ReadAt = (%q, %v), want data", buf[:n], err)
	}
}

func TestROFSRejectsWritesTyped(t *testing.T) {
	inner := backend.NewMem()
	inner.Put("obj", []byte("data"))
	ro := backend.NewROFS(inner)
	if ro.Caps().Has(backend.CapWrite) {
		t.Fatalf("rofs advertises CapWrite")
	}
	obj, err := ro.Open("obj")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := obj.WriteAt([]byte("x"), 0); !errors.Is(err, backend.ErrReadOnly) {
		t.Fatalf("WriteAt error = %v, want ErrReadOnly", err)
	}
	if err := obj.Truncate(0); !errors.Is(err, backend.ErrReadOnly) {
		t.Fatalf("Truncate error = %v, want ErrReadOnly", err)
	}
	// The view never creates: opening a missing object fails.
	if _, err := ro.Open("missing"); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("open missing = %v, want ErrNotFound", err)
	}
	// And the inner object is untouched.
	if data, _ := inner.Get("obj"); string(data) != "data" {
		t.Fatalf("inner mutated: %q", data)
	}
}

func TestErrorFSDeterministicSchedule(t *testing.T) {
	roll := func(seed int64) []bool {
		inj := faultinject.NewInjector(0.5, nil, seed, 0)
		out := make([]bool, 64)
		for i := range out {
			out[i] = inj.Roll() != nil
		}
		return out
	}
	a, b := roll(7), roll(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at roll %d", i)
		}
	}
	c := roll(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds produced identical schedules")
	}
}

func TestErrorFSInjectsAndCounts(t *testing.T) {
	inner := backend.NewMem()
	inner.Put("obj", make([]byte, 1024))
	efs := backend.NewErrorFS(inner, faultinject.NewInjector(1, nil, 1, 0))
	obj, err := efs.Open("obj")
	if err == nil {
		// rate=1 may fail the open roll itself; if it somehow passed, the
		// read must fail.
		if _, rerr := obj.ReadAt(make([]byte, 8), 0); !errors.Is(rerr, faultinject.ErrInjected) {
			t.Fatalf("read error = %v, want ErrInjected", rerr)
		}
	} else if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("open error = %v, want ErrInjected", err)
	}
	if efs.Injector().Injected() == 0 {
		t.Fatalf("injected counter stayed zero")
	}
}

// TestErrorFSFailsMidSession opens an object through a partly failing
// errorfs and reads from it until a read fails: at rate 1 Open itself
// always fails, so only a lower rate reaches an open object's operations.
func TestErrorFSFailsMidSession(t *testing.T) {
	inner := backend.NewMem()
	inner.Put("obj", make([]byte, 1024))
	efs := backend.NewErrorFS(inner, faultinject.NewInjector(0.3, nil, 1, 0))
	var obj backend.Object
	for i := 0; obj == nil; i++ {
		if i == 100 {
			t.Fatal("Open failed 100 times in a row at rate 0.3")
		}
		o, err := efs.Open("obj")
		if err != nil && !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Open: %v", err)
		}
		obj = o
	}
	defer obj.Close()
	buf := make([]byte, 8)
	for i := 0; ; i++ {
		if i == 100 {
			t.Fatal("ReadAt succeeded 100 times in a row at rate 0.3")
		}
		_, err := obj.ReadAt(buf, 0)
		if errors.Is(err, faultinject.ErrInjected) {
			break
		}
		if err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}
}

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec   string
		kind   string
		config string
		opts   map[string]string
		bad    bool
	}{
		{spec: "mem", kind: "mem"},
		{spec: "nativefs:/srv/data", kind: "nativefs", config: "/srv/data"},
		{spec: "rofs:nativefs:/srv/data", kind: "rofs", config: "nativefs:/srv/data"},
		{spec: "errorfs(rate=0.1,seed=7):mem", kind: "errorfs", config: "mem",
			opts: map[string]string{"rate": "0.1", "seed": "7"}},
		{spec: "remote:127.0.0.1:9000", kind: "remote", config: "127.0.0.1:9000"},
		{spec: "", bad: true},
		{spec: ":config", bad: true},
		{spec: "errorfs(rate=0.1:mem", bad: true},
		{spec: "errorfs(rate):mem", bad: true},
	}
	for _, tc := range cases {
		kind, opts, config, err := backend.ParseSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if kind != tc.kind || config != tc.config {
			t.Errorf("ParseSpec(%q) = (%q, %q), want (%q, %q)", tc.spec, kind, config, tc.kind, tc.config)
		}
		for k, v := range tc.opts {
			if opts[k] != v {
				t.Errorf("ParseSpec(%q) opt %q = %q, want %q", tc.spec, k, opts[k], v)
			}
		}
	}
}

func TestRegistryOpenSpecs(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range []string{
		"mem",
		"nativefs:" + dir,
		"rofs:mem",
		"errorfs(rate=0,seed=3):mem",
		"errorfs(rate=0.2,seed=3,latency=1ms):rofs:nativefs:" + dir,
	} {
		b, err := backend.Open(spec)
		if err != nil {
			t.Fatalf("Open(%q): %v", spec, err)
		}
		b.Close()
	}
	if _, err := backend.Open("no-such-kind:zzz"); !errors.Is(err, backend.ErrUnknownKind) {
		t.Fatalf("unknown kind error = %v", err)
	}
	if _, err := backend.Open("errorfs(rate=9):mem"); err == nil {
		t.Fatalf("bad errorfs rate accepted")
	}
	if _, err := backend.Open("nativefs"); err == nil {
		t.Fatalf("nativefs without root accepted")
	}
}

func TestNativeFSNameSandbox(t *testing.T) {
	nfs, err := backend.NewNativeFS(t.TempDir())
	if err != nil {
		t.Fatalf("nativefs: %v", err)
	}
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "../escape"} {
		if _, err := nfs.Open(name); err == nil {
			t.Errorf("Open(%q) succeeded, want rejection", name)
		}
	}
}

func TestStatAndList(t *testing.T) {
	b := backend.NewMem()
	b.Put("alpha", []byte("aaa"))
	b.Put("beta", []byte("bb"))
	if !b.Caps().Has(backend.CapStat | backend.CapList) {
		t.Fatalf("mem caps = %v", b.Caps())
	}
	info, err := b.Stat("alpha")
	if err != nil || info.Size != 3 {
		t.Fatalf("Stat = (%+v, %v)", info, err)
	}
	if _, err := b.Stat("gone"); !errors.Is(err, backend.ErrNotFound) {
		t.Fatalf("Stat missing = %v, want ErrNotFound", err)
	}
	ls, err := b.List()
	if err != nil || len(ls) != 2 || ls[0].Name != "alpha" || ls[1].Name != "beta" {
		t.Fatalf("List = (%+v, %v)", ls, err)
	}

	nfs, err := backend.NewNativeFS(t.TempDir())
	if err != nil {
		t.Fatalf("nativefs: %v", err)
	}
	if err := os.WriteFile(filepath.Join(nfs.Root(), "f1"), []byte("xyzzy"), 0o644); err != nil {
		t.Fatal(err)
	}
	info, err = nfs.Stat("f1")
	if err != nil || info.Size != 5 {
		t.Fatalf("nativefs Stat = (%+v, %v)", info, err)
	}
	ls, err = nfs.List()
	if err != nil || len(ls) != 1 || ls[0].Name != "f1" {
		t.Fatalf("nativefs List = (%+v, %v)", ls, err)
	}
}

// TestMemSharedVisibility: two opens of one name share bytes; closing one
// handle does not disturb the other.
func TestMemSharedVisibility(t *testing.T) {
	b := backend.NewMem()
	a1, _ := b.Open("obj")
	a2, _ := b.Open("obj")
	if _, err := a1.WriteAt([]byte("shared"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := a2.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatal(err)
	}
	if string(buf) != "shared" {
		t.Fatalf("second handle read %q", buf)
	}
	a1.Close()
	if _, err := a2.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		t.Fatalf("surviving handle broken after sibling close: %v", err)
	}
}
