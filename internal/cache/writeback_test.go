package cache

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// failingStore fails the next fails calls to WriteAt.
type failingStore struct {
	Object
	fails int
}

var errInjected = errors.New("injected write failure")

func (f *failingStore) WriteAt(p []byte, off int64) (int, error) {
	if f.fails > 0 {
		f.fails--
		return 0, errInjected
	}
	return f.Object.WriteAt(p, off)
}

// contents returns every byte of s.
func contents(t testing.TB, s Object) []byte {
	t.Helper()
	size, err := s.Size()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, size)
	if n, err := s.ReadAt(buf, 0); n != len(buf) {
		t.Fatalf("ReadAt(%d bytes) = (%d, %v)", len(buf), n, err)
	}
	return buf
}

func TestLocalSyncRetriesAfterFailure(t *testing.T) {
	remote := &failingStore{Object: NewMemStore()}
	local := NewMemStore()
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteAt([]byte("persist me"), 3); err != nil {
		t.Fatal(err)
	}
	remote.fails = 1
	if err := b.Sync(); !errors.Is(err, errInjected) {
		t.Fatalf("first Sync = %v, want the injected failure", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	if got, want := contents(t, remote), contents(t, local); !bytes.Equal(got, want) {
		t.Errorf("remote after retried Sync = %q, want %q", got, want)
	}
}

func TestLocalSyncKeepsOtherSessionsWrites(t *testing.T) {
	remote := NewMemStore()
	remote.WriteAt(bytes.Repeat([]byte("."), 64*1024), 0)
	sessions := make([]*Local, 2)
	for i := range sessions {
		b, err := NewLocal(NewMemStore(), remote)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Populate(); err != nil {
			t.Fatal(err)
		}
		sessions[i] = b
	}
	writes := []struct {
		off  int64
		data string
	}{{100, "first session"}, {60_000, "second session"}}
	for i, w := range writes {
		if _, err := sessions[i].WriteAt([]byte(w.data), w.off); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range sessions {
		if err := b.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range writes {
		got := make([]byte, len(w.data))
		remote.ReadAt(got, w.off)
		if string(got) != w.data {
			t.Errorf("remote at %d = %q, want %q", w.off, got, w.data)
		}
	}
}

// syncOp is one step of a write-back sequence: a write of data at off, a
// truncate to n (followed by a second truncate to n2 when n2 >= 0), or a
// Sync.
type syncOp struct {
	kind  byte // 'w', 't' or 's'
	off   int64
	data  []byte
	n, n2 int64
}

func (o syncOp) String() string {
	switch o.kind {
	case 'w':
		return fmt.Sprintf("WriteAt(%d bytes, %d)", len(o.data), o.off)
	case 't':
		if o.n2 >= 0 {
			return fmt.Sprintf("Truncate(%d); Truncate(%d)", o.n, o.n2)
		}
		return fmt.Sprintf("Truncate(%d)", o.n)
	default:
		return "Sync()"
	}
}

// genSyncOps returns a seeded sequence of writes (some past the end of
// file), truncates down, up, and down-then-up, and Syncs over a file of a
// few KiB.
func genSyncOps(rng *rand.Rand, size int64) []syncOp {
	ops := make([]syncOp, 10+rng.Intn(40))
	for i := range ops {
		switch r := rng.Intn(10); {
		case r < 5:
			data := make([]byte, 1+rng.Intn(300))
			rng.Read(data)
			off := rng.Int63n(size + 512)
			ops[i] = syncOp{kind: 'w', off: off, data: data}
			size = max(size, off+int64(len(data)))
		case r < 8:
			n, n2 := rng.Int63n(size+512), int64(-1)
			if r == 7 {
				n2 = n + rng.Int63n(1024)
			}
			ops[i] = syncOp{kind: 't', n: n, n2: n2}
			size = max(n, n2)
		default:
			ops[i] = syncOp{kind: 's'}
		}
	}
	return ops
}

// runSyncOps applies ops to a Local over a fresh remote and to an os.File
// oracle, and checks after every Sync, and once more after a final one,
// that the remote holds exactly the oracle's bytes.
func runSyncOps(t *testing.T, dir, localKind, remoteKind string, initial []byte, ops []syncOp) error {
	oracle, err := os.Create(filepath.Join(dir, "oracle"))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	remote := openStore(t, remoteKind, filepath.Join(dir, "remote"))
	defer remote.Close()
	for _, s := range []io.WriterAt{oracle, remote} {
		if _, err := s.WriteAt(initial, 0); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewLocal(openStore(t, localKind, filepath.Join(dir, "local")), remote)
	if err != nil {
		t.Fatal(err)
	}
	defer b.local.Close()
	if err := b.Populate(); err != nil {
		t.Fatal(err)
	}
	check := func(step int) error {
		if err := b.Sync(); err != nil {
			return fmt.Errorf("step %d: Sync: %v", step, err)
		}
		info, err := oracle.Stat()
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, info.Size())
		oracle.ReadAt(want, 0)
		got := contents(t, remote)
		if !bytes.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			return fmt.Errorf("step %d: remote has %d bytes, oracle %d; first difference at %d", step, len(got), len(want), i)
		}
		return nil
	}
	for i, op := range ops {
		switch op.kind {
		case 'w':
			if _, err := b.WriteAt(op.data, op.off); err != nil {
				t.Fatal(err)
			}
			oracle.WriteAt(op.data, op.off)
		case 't':
			for _, n := range []int64{op.n, op.n2} {
				if n < 0 {
					continue
				}
				if err := b.Truncate(n); err != nil {
					t.Fatal(err)
				}
				oracle.Truncate(n)
			}
		case 's':
			if err := check(i); err != nil {
				return err
			}
		}
	}
	return check(len(ops))
}

// openStore returns a fresh store of kind "mem" (a MemStore) or "file" (a
// File at path).
func openStore(t *testing.T, kind, path string) Object {
	if kind == "mem" {
		return NewMemStore()
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return &File{f: f}
}

func TestLocalSyncMatchesFile(t *testing.T) {
	stores := []struct{ local, remote string }{
		{"mem", "mem"},   // cache=memory over a remote service
		{"mem", "file"},  // cache=memory over the data part
		{"file", "file"}, // cache=disk: the data part over a remote service
	}
	const sequences = 300
	for _, st := range stores {
		t.Run(st.local+"-over-"+st.remote, func(t *testing.T) {
			dir := t.TempDir()
			for seed := int64(1); seed <= sequences; seed++ {
				rng := rand.New(rand.NewSource(seed))
				initial := make([]byte, rng.Intn(4096))
				rng.Read(initial)
				ops := genSyncOps(rng, int64(len(initial)))
				if runSyncOps(t, dir, st.local, st.remote, initial, ops) == nil {
					continue
				}
				// Report the shortest failing prefix of the sequence.
				for k := 1; k <= len(ops); k++ {
					err := runSyncOps(t, dir, st.local, st.remote, initial, ops[:k])
					if err == nil {
						continue
					}
					steps := make([]string, k)
					for i, op := range ops[:k] {
						steps[i] = fmt.Sprintf("  %d: %v", i, op)
					}
					t.Fatalf("seed %d, %d initial bytes: %v\nshortest failing prefix:\n%s",
						seed, len(initial), err, strings.Join(steps, "\n"))
				}
				t.Fatalf("seed %d fails, but no prefix of it does", seed)
			}
		})
	}
}

func TestLocalSyncRacesWrites(t *testing.T) {
	remote := NewMemStore()
	remote.WriteAt(bytes.Repeat([]byte("r"), 16*1024), 0)
	local := NewMemStore()
	b, err := NewLocal(local, remote)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Populate(); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	syncErr := make(chan error, 1)
	go func() {
		var err error
		for !stop.Load() && err == nil {
			err = b.Sync()
		}
		syncErr <- err
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			data := make([]byte, 256)
			for i := 0; i < 2000; i++ {
				if seed == 0 && i%100 == 99 {
					b.Truncate(rng.Int63n(20 * 1024))
					continue
				}
				rng.Read(data)
				b.WriteAt(data[:1+rng.Intn(len(data))], rng.Int63n(20*1024))
			}
		}(int64(w))
	}
	wg.Wait()
	stop.Store(true)
	if err := <-syncErr; err != nil {
		t.Fatalf("Sync during writes: %v", err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	if got, want := contents(t, remote), contents(t, local); !bytes.Equal(got, want) {
		t.Errorf("remote (%d bytes) differs from the local copy (%d bytes) after the final Sync", len(got), len(want))
	}
}

func TestMemStoreGrowZeroesStaleBytes(t *testing.T) {
	m := NewMemStore()
	m.WriteAt(bytes.Repeat([]byte{0xff}, 200), 0)
	m.Truncate(4)
	m.WriteAt([]byte("x"), 100)
	got := make([]byte, 96)
	if _, err := m.ReadAt(got, 4); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 96)) {
		t.Errorf("bytes [4,100) after Truncate(4) and a write at 100 = %x, want zeros", got)
	}
	m.Truncate(4)
	m.Truncate(150)
	got = make([]byte, 146)
	m.ReadAt(got, 4)
	if !bytes.Equal(got, make([]byte, 146)) {
		t.Errorf("bytes [4,150) after Truncate(4) and Truncate(150) = %x, want zeros", got)
	}
}

func TestMemStoreAppendGrowsAmortized(t *testing.T) {
	m := NewMemStore()
	m.WriteAt(make([]byte, 1<<20), 0)
	chunk := make([]byte, 128)
	off := int64(1 << 20)
	allocs := testing.AllocsPerRun(1000, func() {
		m.WriteAt(chunk, off)
		off += int64(len(chunk))
	})
	if allocs > 0 {
		t.Errorf("a 128 B append to a 1 MiB store allocates %v times per write, want amortized growth", allocs)
	}
}

// BenchmarkLocalSync times the write-back of one benchmark write batch: 64
// random 128 B writes into a 1 MiB memory copy, then a Sync to a file.
func BenchmarkLocalSync(b *testing.B) {
	f, err := os.Create(filepath.Join(b.TempDir(), "data"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	const size = 1 << 20
	f.WriteAt(make([]byte, size), 0)
	l, err := NewLocal(NewMemStore(), &File{f: f})
	if err != nil {
		b.Fatal(err)
	}
	if err := l.Populate(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for w := 0; w < 64; w++ {
			l.WriteAt(data, rng.Int63n(size-128))
		}
		b.StartTimer()
		if err := l.Sync(); err != nil {
			b.Fatal(err)
		}
	}
}
