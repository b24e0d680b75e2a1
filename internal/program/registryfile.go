package program

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/registry"
)

// RegistryFile is the registry-filtering sentinel of §3: "the sentinel
// checks the registry, providing a simplified version (e.g., a plain text
// file) to the client application. Any modifications by the client
// application can in turn be parsed by the sentinel process and translated
// into appropriate registry modifications." The registry persists in the
// active file's data part in canonical text form; sessions operate on a
// live registry.Registry and commit validated edits on sync/close —
// malformed edits are rejected instead of corrupting the store.
type RegistryFile struct{}

var _ core.Program = RegistryFile{}

// Name implements core.Program.
func (RegistryFile) Name() string { return "registryfile" }

// Open implements core.Program.
func (RegistryFile) Open(env *core.Env) (core.Handler, error) {
	data, err := env.OpenData()
	if err != nil {
		return nil, err
	}
	h := &registryHandler{store: data, image: cache.NewMemStore(), reg: registry.New()}
	if err := h.load(); err != nil {
		data.Close()
		return nil, err
	}
	return h, nil
}

type registryHandler struct {
	store cache.Object
	reg   *registry.Registry
	image *cache.MemStore
	dirty bool
}

var _ core.Handler = (*registryHandler)(nil)

// load parses the stored text into the live registry and exposes its
// canonical rendering as the session image.
func (h *registryHandler) load() error {
	size, err := h.store.Size()
	if err != nil {
		return err
	}
	raw := make([]byte, size)
	if size > 0 {
		if _, err := readFull(h.store, raw); err != nil {
			return fmt.Errorf("registryfile: read store: %w", err)
		}
	}
	parsed, err := registry.Parse(raw)
	if err != nil {
		return fmt.Errorf("registryfile: stored registry: %w", err)
	}
	h.reg.ReplaceWith(parsed)
	return h.resetImage()
}

func (h *registryHandler) resetImage() error {
	text := h.reg.Render()
	if err := h.image.Truncate(int64(len(text))); err != nil {
		return err
	}
	_, err := h.image.WriteAt(text, 0)
	return err
}

func (h *registryHandler) ReadAt(p []byte, off int64) (int, error) {
	return h.image.ReadAt(p, off)
}

func (h *registryHandler) WriteAt(p []byte, off int64) (int, error) {
	n, err := h.image.WriteAt(p, off)
	if n > 0 {
		h.dirty = true
	}
	return n, err
}

func (h *registryHandler) Size() (int64, error) { return h.image.Size() }

func (h *registryHandler) Truncate(n int64) error {
	if err := h.image.Truncate(n); err != nil {
		return err
	}
	h.dirty = true
	return nil
}

// Sync parses the edited text; valid edits become registry modifications and
// the canonical rendering is persisted, invalid edits fail the sync and
// leave the registry untouched.
func (h *registryHandler) Sync() error {
	if !h.dirty {
		return nil
	}
	size, err := h.image.Size()
	if err != nil {
		return err
	}
	raw := make([]byte, size)
	if size > 0 {
		if _, err := readFull(h.image, raw); err != nil {
			return err
		}
	}
	parsed, err := registry.Parse(raw)
	if err != nil {
		return fmt.Errorf("registryfile: rejected edit: %w", err)
	}
	h.reg.ReplaceWith(parsed)
	canonical := h.reg.Render()
	if err := h.store.Truncate(int64(len(canonical))); err != nil {
		return err
	}
	if _, err := h.store.WriteAt(canonical, 0); err != nil {
		return err
	}
	h.dirty = false
	return h.resetImage()
}

func (h *registryHandler) Close() error {
	err := h.Sync()
	if cerr := h.store.Close(); err == nil {
		err = cerr
	}
	return err
}
