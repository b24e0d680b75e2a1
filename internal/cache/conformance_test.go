package cache_test

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/backend/conformance"
	"repro/internal/cache"
)

// seeded returns a fresh MemStore holding content.
func seeded(t *testing.T, content []byte) *cache.MemStore {
	t.Helper()
	m := cache.NewMemStore()
	if _, err := m.WriteAt(content, 0); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return m
}

// TestConformanceMemStore pins the full read-write contract on the
// in-memory object itself.
func TestConformanceMemStore(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		return seeded(t, content)
	})
}

// openFile returns a cache.File over a fresh temporary file holding
// content, closed when the test ends.
func openFile(t *testing.T, content []byte) *cache.File {
	t.Helper()
	f, err := cache.OpenFile(filepath.Join(t.TempDir(), "obj"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if _, err := f.WriteAt(content, 0); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return f
}

// TestConformanceFile pins the full read-write contract on the file object
// behind the data part and nativefs.
func TestConformanceFile(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		return openFile(t, content)
	})
}

// TestFileConcurrentOpsRaceClose shares one File among goroutines running
// every operation with no lock of its own, then closes it under them: each
// operation succeeds (or reads io.EOF past a concurrent truncation) until
// the Close, and answers ErrObjectClosed after it.
func TestFileConcurrentOpsRaceClose(t *testing.T) {
	f := openFile(t, bytes.Repeat([]byte("f"), 4096))
	op := func(g, i int, buf []byte) error {
		off := int64(g * 512)
		var err error
		switch i % 5 {
		case 0:
			if _, err = f.ReadAt(buf, off); err == io.EOF {
				err = nil
			}
		case 1:
			_, err = f.WriteAt(buf, off)
		case 2:
			err = f.Truncate(4096 + int64(g))
		case 3:
			_, err = f.Size()
		case 4:
			err = f.Sync()
		}
		return err
	}
	const warm = 100 // operations each goroutine runs before the Close
	var ready, done sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		ready.Add(1)
		done.Add(1)
		go func(g int) {
			defer done.Done()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				if i == warm {
					ready.Done()
				}
				if err := op(g, i, buf); err != nil {
					if i < warm {
						ready.Done()
					}
					if !errors.Is(err, cache.ErrObjectClosed) {
						errs <- err
					}
					return
				}
			}
		}(g)
	}
	ready.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("operation = %v, want success or ErrObjectClosed", err)
	}
}

// TestConformancePassthrough pins the contract on the Mode None backend.
func TestConformancePassthrough(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		b, err := cache.NewPassthrough(seeded(t, content))
		if err != nil {
			t.Fatal(err)
		}
		return b
	})
}

// TestConformanceLocal pins the contract on the Mode Memory backend serving
// from a local MemStore, on its own and writing back to a remote one.
func TestConformanceLocal(t *testing.T) {
	t.Run("NoRemote", func(t *testing.T) {
		conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
			b, err := cache.NewLocal(seeded(t, content), nil)
			if err != nil {
				t.Fatal(err)
			}
			return b
		})
	})
	t.Run("Remote", func(t *testing.T) {
		conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
			b, err := cache.NewLocal(cache.NewMemStore(), seeded(t, content))
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Populate(); err != nil {
				t.Fatal(err)
			}
			return b
		})
	})
}

// TestConformanceBlockCache pins the contract on the block cache over a
// MemStore, with blocks small enough that reads span several.
func TestConformanceBlockCache(t *testing.T) {
	conformance.RunRW(t, func(t *testing.T, content []byte) conformance.Object {
		c, err := cache.NewBlockCache(seeded(t, content), 512, 4)
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
}

// TestMemStoreHandleCloseIsPerHandle pins the handle semantics: closing a
// handle fails its own operations with ErrObjectClosed, while the store and
// a handle opened from it keep reading and writing the shared bytes.
func TestMemStoreHandleCloseIsPerHandle(t *testing.T) {
	m := seeded(t, []byte("shared"))
	h := m.Open()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(make([]byte, 1), 0); !errors.Is(err, cache.ErrObjectClosed) {
		t.Errorf("ReadAt after Close = %v, want ErrObjectClosed", err)
	}
	if _, err := h.WriteAt([]byte("x"), 0); !errors.Is(err, cache.ErrObjectClosed) {
		t.Errorf("WriteAt after Close = %v, want ErrObjectClosed", err)
	}
	if _, err := h.Size(); !errors.Is(err, cache.ErrObjectClosed) {
		t.Errorf("Size after Close = %v, want ErrObjectClosed", err)
	}
	if err := h.Truncate(0); !errors.Is(err, cache.ErrObjectClosed) {
		t.Errorf("Truncate after Close = %v, want ErrObjectClosed", err)
	}

	// A handle opened from the closed one is open, and writes through it
	// are the bytes every handle reads.
	h2 := h.Open()
	if _, err := h2.WriteAt([]byte("S"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if _, err := m.ReadAt(buf, 0); err != nil || string(buf) != "Shared" {
		t.Errorf("store reads (%q, %v), want Shared", buf, err)
	}
}

// TestMemStoreReplaceIsAtomic races readers on one handle against Replace
// through another: every read sees one whole content, never a mix or a
// length between the two.
func TestMemStoreReplaceIsAtomic(t *testing.T) {
	a, b := bytes.Repeat([]byte("a"), 4096), bytes.Repeat([]byte("b"), 1024)
	m := seeded(t, a)
	r := m.Open()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				m.Replace(b)
			} else {
				m.Replace(a)
			}
		}
	}()
	defer func() {
		close(stop)
		wg.Wait()
	}()
	buf := make([]byte, len(a))
	for i := 0; i < 2000; i++ {
		got := m.Bytes()
		if !bytes.Equal(got, a) && !bytes.Equal(got, b) {
			t.Fatalf("Bytes saw a mixed content of %d bytes", len(got))
		}
		n, _ := r.ReadAt(buf, 0)
		if !bytes.Equal(buf[:n], a) && !bytes.Equal(buf[:n], b) {
			t.Fatalf("ReadAt saw a mixed content of %d bytes", n)
		}
	}
}
