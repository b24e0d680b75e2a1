// Package conformance is the single contract suite every backend — and every
// implementation strategy serving one — must pass. It pins os.File semantics
// at the Object seam: offset math, io.EOF on reads past the end, (0, nil)
// for zero-length reads at EOF, gap-filling writes, truncate-extend
// zero-fill, tolerance of concurrent readers, and errors after Close.
//
// A Factory provisions a fresh object seeded with given content by whatever
// side channel the backend offers (writing through the backend, putting on a
// server, dropping a file in a directory) and registers cleanup on t. RunRO
// exercises the read-only profile; RunRW adds mutation and then runs RunRO
// too. The suites run directly against each backend (package backend's
// tests) and each of package cache's stores and caches, and end-to-end
// through every strategy via the manifest backend= parameter (package core's
// matrix), so the contract is enforced at the seam and across each
// transport.
package conformance

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/cache"
)

// Object is the access contract under test: cache.Object, the one object
// contract, which backend objects, remote sources, the cache package's
// stores and core.Handle's positioned subset all implement, so any of them
// can be driven without adapters.
type Object = cache.Object

// Factory provisions a fresh object whose contents are exactly content,
// registering any cleanup with t. Each call must yield an independent
// object; RunRO/RunRW call it several times.
type Factory func(t *testing.T, content []byte) Object

// seedLen is deliberately not a multiple of common block sizes, so tail
// reads genuinely straddle the end.
const seedLen = 4093

// seedContent returns the deterministic test pattern.
func seedContent(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i*7 + i>>8)
	}
	return out
}

// RunRO runs the read-only conformance profile: it never writes through the
// object under test.
func RunRO(t *testing.T, factory Factory) {
	content := seedContent(seedLen)
	size := int64(len(content))

	t.Run("Size", func(t *testing.T) {
		obj := factory(t, content)
		got, err := obj.Size()
		if err != nil {
			t.Fatalf("Size: %v", err)
		}
		if got != size {
			t.Fatalf("Size = %d, want %d", got, size)
		}
	})

	t.Run("OffsetMath", func(t *testing.T) {
		obj := factory(t, content)
		for _, tc := range []struct{ off, n int64 }{
			{0, 1}, {0, 16}, {1, 16}, {511, 513}, {size / 2, 128}, {size - 1, 1},
		} {
			buf := make([]byte, tc.n)
			n, err := obj.ReadAt(buf, tc.off)
			if err != nil || int64(n) != tc.n {
				t.Fatalf("ReadAt(%d bytes @ %d) = (%d, %v), want (%d, nil)", tc.n, tc.off, n, err, tc.n)
			}
			if !bytes.Equal(buf, content[tc.off:tc.off+tc.n]) {
				t.Fatalf("ReadAt(%d bytes @ %d): content mismatch", tc.n, tc.off)
			}
		}
	})

	t.Run("TailRead", func(t *testing.T) {
		obj := factory(t, content)
		// A read straddling the end returns the remaining bytes; the EOF may
		// arrive with them or on the next call, as with os.File both are
		// spec-level (ReaderAt permits either only when n < len(p)).
		buf := make([]byte, 100)
		off := size - 40
		n, err := obj.ReadAt(buf, off)
		if n != 40 {
			t.Fatalf("tail ReadAt = (%d, %v), want 40 bytes", n, err)
		}
		if err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("tail ReadAt error = %v, want nil or io.EOF", err)
		}
		if !bytes.Equal(buf[:40], content[off:]) {
			t.Fatalf("tail ReadAt: content mismatch")
		}
	})

	t.Run("ReadPastEOF", func(t *testing.T) {
		obj := factory(t, content)
		for _, off := range []int64{size, size + 1, size + 4096} {
			buf := make([]byte, 8)
			n, err := obj.ReadAt(buf, off)
			if n != 0 || !errors.Is(err, io.EOF) {
				t.Fatalf("ReadAt @ %d (size %d) = (%d, %v), want (0, io.EOF)", off, size, n, err)
			}
		}
	})

	t.Run("ZeroLenReadAtEOF", func(t *testing.T) {
		obj := factory(t, content)
		// os.File semantics: a zero-length read succeeds everywhere,
		// including exactly at EOF.
		for _, off := range []int64{0, size / 2, size} {
			n, err := obj.ReadAt(nil, off)
			if n != 0 || err != nil {
				t.Fatalf("zero-length ReadAt @ %d = (%d, %v), want (0, nil)", off, n, err)
			}
		}
	})

	t.Run("ConcurrentReaders", func(t *testing.T) {
		obj := factory(t, content)
		const readers = 8
		var wg sync.WaitGroup
		errs := make(chan error, readers)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 64)
				for i := 0; i < 50; i++ {
					off := int64((g*131 + i*257) % (len(content) - 64))
					n, err := obj.ReadAt(buf, off)
					if err != nil || n != 64 {
						errs <- fmt.Errorf("reader %d: ReadAt@%d = (%d, %v)", g, off, n, err)
						return
					}
					if !bytes.Equal(buf, content[off:off+64]) {
						errs <- fmt.Errorf("reader %d: mismatch @%d", g, off)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})

	t.Run("CloseThenOp", func(t *testing.T) {
		obj := factory(t, content)
		if err := obj.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n, err := obj.ReadAt(make([]byte, 8), 0); err == nil {
			t.Fatalf("ReadAt after Close = (%d, nil), want error", n)
		}
		if _, err := obj.Size(); err == nil {
			t.Fatalf("Size after Close succeeded, want error")
		}
	})
}

// RunRW runs the full read-write conformance profile, then RunRO.
func RunRW(t *testing.T, factory Factory) {
	content := seedContent(seedLen)
	size := int64(len(content))

	t.Run("WriteReadBack", func(t *testing.T) {
		obj := factory(t, content)
		patch := []byte("0123456789abcdef")
		off := size/2 - 3
		if n, err := obj.WriteAt(patch, off); err != nil || n != len(patch) {
			t.Fatalf("WriteAt = (%d, %v), want (%d, nil)", n, err, len(patch))
		}
		// The patch, and the bytes on either side of it, read back intact.
		buf := make([]byte, len(patch)+8)
		if _, err := obj.ReadAt(buf, off-4); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		want := append(append(append([]byte{}, content[off-4:off]...), patch...), content[off+int64(len(patch)):off+int64(len(patch))+4]...)
		if !bytes.Equal(buf, want) {
			t.Fatalf("read-back mismatch: got %q want %q", buf, want)
		}
		if got, err := obj.Size(); err != nil || got != size {
			t.Fatalf("Size after overwrite = (%d, %v), want (%d, nil)", got, err, size)
		}
	})

	t.Run("GapFillingWrite", func(t *testing.T) {
		obj := factory(t, content)
		tail := []byte("tail")
		gapOff := size + 100
		if n, err := obj.WriteAt(tail, gapOff); err != nil || n != len(tail) {
			t.Fatalf("gap WriteAt = (%d, %v), want (%d, nil)", n, err, len(tail))
		}
		wantSize := gapOff + int64(len(tail))
		if got, err := obj.Size(); err != nil || got != wantSize {
			t.Fatalf("Size after gap write = (%d, %v), want (%d, nil)", got, err, wantSize)
		}
		// The gap reads as zeros, and the tail is where we put it.
		gap := make([]byte, 100)
		if _, err := obj.ReadAt(gap, size); err != nil {
			t.Fatalf("ReadAt gap: %v", err)
		}
		if !bytes.Equal(gap, make([]byte, 100)) {
			t.Fatalf("gap not zero-filled")
		}
		buf := make([]byte, len(tail))
		if _, err := obj.ReadAt(buf, gapOff); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt tail: %v", err)
		}
		if !bytes.Equal(buf, tail) {
			t.Fatalf("tail mismatch: got %q", buf)
		}
	})

	t.Run("TruncateExtend", func(t *testing.T) {
		obj := factory(t, content)
		grown := size + 512
		if err := obj.Truncate(grown); err != nil {
			t.Fatalf("Truncate extend: %v", err)
		}
		if got, err := obj.Size(); err != nil || got != grown {
			t.Fatalf("Size after extend = (%d, %v), want (%d, nil)", got, err, grown)
		}
		ext := make([]byte, 512)
		if _, err := obj.ReadAt(ext, size); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt extension: %v", err)
		}
		if !bytes.Equal(ext, make([]byte, 512)) {
			t.Fatalf("extension not zero-filled")
		}
		head := make([]byte, 64)
		if _, err := obj.ReadAt(head, 0); err != nil {
			t.Fatalf("ReadAt head: %v", err)
		}
		if !bytes.Equal(head, content[:64]) {
			t.Fatalf("extend clobbered existing content")
		}
	})

	t.Run("TruncateShrinkThenExtend", func(t *testing.T) {
		obj := factory(t, content)
		if err := obj.Truncate(10); err != nil {
			t.Fatalf("Truncate shrink: %v", err)
		}
		if got, err := obj.Size(); err != nil || got != 10 {
			t.Fatalf("Size after shrink = (%d, %v), want (10, nil)", got, err)
		}
		if n, err := obj.ReadAt(make([]byte, 8), 10); n != 0 || !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt past shrunk end = (%d, %v), want (0, io.EOF)", n, err)
		}
		// Re-extending exposes zeros, not resurrected bytes.
		if err := obj.Truncate(40); err != nil {
			t.Fatalf("Truncate re-extend: %v", err)
		}
		buf := make([]byte, 30)
		if _, err := obj.ReadAt(buf, 10); err != nil && !errors.Is(err, io.EOF) {
			t.Fatalf("ReadAt re-extended: %v", err)
		}
		if !bytes.Equal(buf, make([]byte, 30)) {
			t.Fatalf("re-extended region not zero-filled: %q", buf)
		}
	})

	t.Run("ConcurrentDisjointWriters", func(t *testing.T) {
		obj := factory(t, make([]byte, 8*512))
		var wg sync.WaitGroup
		errs := make(chan error, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				block := bytes.Repeat([]byte{byte('A' + g)}, 512)
				if _, err := obj.WriteAt(block, int64(g)*512); err != nil {
					errs <- fmt.Errorf("writer %d: %v", g, err)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		buf := make([]byte, 8*512)
		if _, err := obj.ReadAt(buf, 0); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
		for g := 0; g < 8; g++ {
			want := bytes.Repeat([]byte{byte('A' + g)}, 512)
			if !bytes.Equal(buf[g*512:(g+1)*512], want) {
				t.Fatalf("writer %d's block corrupted", g)
			}
		}
	})

	t.Run("CloseThenWrite", func(t *testing.T) {
		obj := factory(t, content)
		if err := obj.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n, err := obj.WriteAt([]byte("x"), 0); err == nil {
			t.Fatalf("WriteAt after Close = (%d, nil), want error", n)
		}
		if err := obj.Truncate(0); err == nil {
			t.Fatalf("Truncate after Close succeeded, want error")
		}
	})

	RunRO(t, factory)
}

// Stream is the sequential-access contract of the plain process strategy,
// which has no control channel for positioned operations.
type Stream interface {
	io.Reader
	io.Closer
}

// StreamFactory provisions a fresh stream positioned at the start of
// content, registering cleanup with t.
type StreamFactory func(t *testing.T, content []byte) Stream

// RunStreamRO verifies that sequential reads reproduce the seeded content
// exactly — the conformance profile for transports without positioning.
func RunStreamRO(t *testing.T, factory StreamFactory) {
	content := seedContent(seedLen)

	t.Run("SequentialRead", func(t *testing.T) {
		s := factory(t, content)
		got := make([]byte, len(content))
		// Odd-sized chunks so reads straddle any internal block boundaries.
		for off := 0; off < len(got); {
			n := 617
			if off+n > len(got) {
				n = len(got) - off
			}
			if _, err := io.ReadFull(s, got[off:off+n]); err != nil {
				t.Fatalf("sequential read @ %d: %v", off, err)
			}
			off += n
		}
		if !bytes.Equal(got, content) {
			t.Fatalf("sequential read: content mismatch")
		}
	})

	t.Run("CloseThenRead", func(t *testing.T) {
		s := factory(t, content)
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if n, err := s.Read(make([]byte, 8)); err == nil {
			t.Fatalf("Read after Close = (%d, nil), want error", n)
		}
	})
}
