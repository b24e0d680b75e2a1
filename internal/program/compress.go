package program

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/filter"
)

// Compress is the per-file compression sentinel of §3: "the sentinel process
// compresses and decompresses the file data as it is written and read ...
// the client application is completely unaware that it is interacting with a
// compressed file". The stored form (data part or remote source) holds the
// encoded bytes; the session operates on a decoded in-memory image that is
// re-encoded on sync and close. The codec is per file — the manifest's
// "codec" parameter — realizing "different compression algorithms used for
// different types of files".
type Compress struct{}

var _ core.Program = Compress{}

// Name implements core.Program.
func (Compress) Name() string { return "compress" }

// Open implements core.Program.
func (Compress) Open(env *core.Env) (core.Handler, error) {
	codec, err := filter.NewCodec(env.Param("codec", "lz"))
	if err != nil {
		return nil, err
	}
	store, err := openStore(env)
	if err != nil {
		return nil, err
	}
	h := &compressHandler{store: store, codec: codec, image: cache.NewMemStore()}
	if err := h.load(); err != nil {
		h.store.Close()
		return nil, err
	}
	return h, nil
}

// openStore picks the persistent home of the encoded bytes: the remote
// source when bound, else the data part.
func openStore(env *core.Env) (cache.Object, error) {
	source, err := env.OpenSource()
	if err != nil {
		return nil, err
	}
	if source != nil {
		return source, nil
	}
	return env.OpenData()
}

type compressHandler struct {
	store cache.Object
	codec filter.Codec
	image *cache.MemStore
	dirty bool
}

var _ core.Handler = (*compressHandler)(nil)

// load decodes the stored representation into the session image.
func (h *compressHandler) load() error {
	size, err := h.store.Size()
	if err != nil {
		return fmt.Errorf("compress: stored size: %w", err)
	}
	if size == 0 {
		return nil // fresh file: empty image
	}
	enc := make([]byte, size)
	if _, err := readFull(h.store, enc); err != nil {
		return fmt.Errorf("compress: read stored form: %w", err)
	}
	dec, err := h.codec.Decode(enc)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if _, err := h.image.WriteAt(dec, 0); err != nil {
		return err
	}
	return nil
}

func readFull(r io.ReaderAt, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.ReadAt(p[total:], int64(total))
		total += n
		if err != nil {
			if errors.Is(err, io.EOF) && total == len(p) {
				return total, nil
			}
			return total, err
		}
		if n == 0 {
			return total, io.ErrUnexpectedEOF
		}
	}
	return total, nil
}

func (h *compressHandler) ReadAt(p []byte, off int64) (int, error) {
	return h.image.ReadAt(p, off)
}

func (h *compressHandler) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.image.WriteAt(p, off)
	if n > 0 {
		h.dirty = true
	}
	return n, err
}

func (h *compressHandler) Size() (int64, error) { return h.image.Size() }

func (h *compressHandler) Truncate(n int64) error {
	if err := h.image.Truncate(n); err != nil {
		return err
	}
	h.dirty = true
	return nil
}

// Sync re-encodes the image into the store.
func (h *compressHandler) Sync() error {
	if !h.dirty {
		return nil
	}
	size, err := h.image.Size()
	if err != nil {
		return err
	}
	dec := make([]byte, size)
	if size > 0 {
		if _, err := readFull(h.image, dec); err != nil {
			return err
		}
	}
	enc, err := h.codec.Encode(dec)
	if err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if err := h.store.Truncate(int64(len(enc))); err != nil {
		return fmt.Errorf("compress: truncate store: %w", err)
	}
	if _, err := h.store.WriteAt(enc, 0); err != nil {
		return fmt.Errorf("compress: write store: %w", err)
	}
	h.dirty = false
	return nil
}

func (h *compressHandler) Close() error {
	err := h.Sync()
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}
