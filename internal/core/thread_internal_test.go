package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wire"
)

// bufRecorder is a fakeHandler that remembers the buffer its last ReadAt
// was handed.
type bufRecorder struct {
	fakeHandler
	last []byte
}

func (b *bufRecorder) ReadAt(p []byte, off int64) (int, error) {
	b.last = p
	return b.fakeHandler.ReadAt(p, off)
}

// TestThreadReadFillsCallerBuffer: a thread read hands the program the
// caller's own buffer — the bytes are written once, in place, with no pooled
// intermediate and no copy-out.
func TestThreadReadFillsCallerBuffer(t *testing.T) {
	h := &bufRecorder{fakeHandler: fakeHandler{data: []byte("hello, thread")}}
	tr := newThreadTransport(h, sessionOptions{})
	defer tr.close()
	p := make([]byte, 5)
	if n, err := tr.readAt(p, 7); n != 5 || err != nil || string(p) != "threa" {
		t.Fatalf("readAt = (%d, %v), %q", n, err, p)
	}
	if len(h.last) != len(p) || &h.last[0] != &p[0] {
		t.Errorf("program read into a %d-byte buffer other than the caller's", len(h.last))
	}
}

// TestThreadCloseRacesReaders: eight goroutines read one thread session
// while it closes. Every read returns either all of the right bytes or
// wire.ErrClosed, and once a read has returned no sentinel worker writes to
// its buffer again — each reader scribbles over its buffer after every
// read, so under -race a late worker write is a reported race. The
// "handle" case closes through Handle.Close, which waits for admitted
// operations; the "transport" case closes the transport under the readers'
// feet, leaving the rendezvous alone to keep the guarantee.
func TestThreadCloseRacesReaders(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789abcdef"), 256)
	type reader func(p []byte, off int64) (int, error)
	cases := []struct {
		name string
		open func(t *testing.T) (reader, func() error)
	}{
		{"handle", func(t *testing.T) (reader, func() error) {
			path := filepath.Join(t.TempDir(), "file.af")
			if err := vfs.Create(path, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "memory",
				Params:  map[string]string{"readahead": "false"},
			}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(vfs.DataPath(path), data, 0o644); err != nil {
				t.Fatal(err)
			}
			h, err := Open(path, Options{Strategy: StrategyThread})
			if err != nil {
				t.Fatal(err)
			}
			return h.ReadAt, h.Close
		}},
		{"transport", func(t *testing.T) (reader, func() error) {
			tr := newThreadTransport(&fakeHandler{data: data}, sessionOptions{})
			return tr.readAt, tr.close
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				read, closeFn := c.open(t)
				var wg sync.WaitGroup
				started := make(chan struct{}, 8)
				for g := 0; g < 8; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						p := make([]byte, 128)
						for i := 0; ; i++ {
							off := int64((g*31 + i*128) % (len(data) - len(p)))
							n, err := read(p, off)
							if i == 0 {
								started <- struct{}{}
							}
							if errors.Is(err, wire.ErrClosed) {
								return
							}
							if err != nil || n != len(p) || !bytes.Equal(p, data[off:off+int64(n)]) {
								t.Errorf("read at %d = (%d, %v), %q", off, n, err, p[:n])
								return
							}
							for j := range p {
								p[j] = 0xff
							}
						}
					}(g)
				}
				for g := 0; g < 8; g++ {
					<-started
				}
				if err := closeFn(); err != nil {
					t.Fatalf("close: %v", err)
				}
				wg.Wait()
			}
		})
	}
}
