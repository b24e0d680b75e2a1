package fleet

import (
	"errors"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/remote"
	"repro/internal/vfs"
)

// TestClosedObjectsAnswerErrObjectClosed closes one object of every kind,
// in memory, on disk and across the network, and asserts that each
// operation afterwards answers cache.ErrObjectClosed: a holder of any
// object tests for "closed" with one errors.Is.
func TestClosedObjectsAnswerErrObjectClosed(t *testing.T) {
	m, _ := startShards(t, 3, 2, nil)
	fileSrv := remote.NewFileServer()
	fileAddr, err := fileSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fileSrv.Close() })
	httpSrv := httptest.NewServer(remote.NewObjectServer())
	t.Cleanup(httpSrv.Close)
	dir := t.TempDir()

	kinds := []struct {
		name string
		open func() (cache.Object, error)
	}{
		{"MemStore", func() (cache.Object, error) { return cache.NewMemStore().Open(), nil }},
		{"DataPart", func() (cache.Object, error) {
			path := filepath.Join(dir, "file.af")
			if err := vfs.Create(path, vfs.Manifest{Program: vfs.ProgramSpec{Name: "passthrough"}}); err != nil {
				return nil, err
			}
			return vfs.OpenData(path)
		}},
		{"NativeFS", func() (cache.Object, error) {
			nfs, err := backend.NewNativeFS(filepath.Join(dir, "nativefs"))
			if err != nil {
				return nil, err
			}
			return nfs.Open("obj")
		}},
		{"RemoteClient", func() (cache.Object, error) { return remote.Dial(fileAddr, "obj") }},
		{"HTTPSource", func() (cache.Object, error) { return remote.NewHTTPSource(httpSrv.URL+"/obj", nil), nil }},
		{"FleetObject", func() (cache.Object, error) { return New(m, Options{Dial: fastDial}).Open("obj") }},
		{"FleetCachedObject", func() (cache.Object, error) {
			return New(m, Options{Dial: fastDial, CacheBlocks: 4}).Open("obj")
		}},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			obj, err := k.open()
			if err != nil {
				t.Fatal(err)
			}
			// Use the object first, so the connections, leases and cached
			// blocks it keeps are live when it closes.
			if _, err := obj.WriteAt([]byte("live"), 0); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			if _, err := obj.ReadAt(make([]byte, 4), 0); err != nil {
				t.Fatalf("ReadAt: %v", err)
			}
			if err := obj.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, rerr := obj.ReadAt(make([]byte, 4), 0)
			_, werr := obj.WriteAt([]byte("x"), 0)
			_, serr := obj.Size()
			terr := obj.Truncate(0)
			for op, err := range map[string]error{"ReadAt": rerr, "WriteAt": werr, "Size": serr, "Truncate": terr} {
				if !errors.Is(err, cache.ErrObjectClosed) {
					t.Errorf("%s after Close = %v, want cache.ErrObjectClosed", op, err)
				}
			}
		})
	}
}
