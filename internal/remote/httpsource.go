package remote

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/backend"
)

// HTTPSource is a source over plain HTTP — the paper's §3 aggregation
// example accesses remote files "using a standard protocol (e.g., FTP or
// HTTP)". Reads use ranged GETs, Size uses HEAD, writes use PUT of the full
// object (read-modify-write), and Truncate rewrites the object at the new
// length. It interoperates with any HTTP server honouring Range, including
// ObjectServer below.
type HTTPSource struct {
	url    string
	client *http.Client

	mu     sync.Mutex
	closed bool
}

var _ backend.Object = (*HTTPSource)(nil)

// NewHTTPSource returns a source for the object at url. A nil client
// selects http.DefaultClient.
func NewHTTPSource(url string, client *http.Client) *HTTPSource {
	if client == nil {
		client = http.DefaultClient
	}
	return &HTTPSource{url: url, client: client}
}

func (s *HTTPSource) guard() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return backend.ErrObjectClosed
	}
	return nil
}

// ReadAt implements backend.Object with a ranged GET.
func (s *HTTPSource) ReadAt(p []byte, off int64) (int, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	req, err := http.NewRequest(http.MethodGet, s.url, nil)
	if err != nil {
		return 0, fmt.Errorf("http source: %w", err)
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("http source: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent, http.StatusOK:
	case http.StatusRequestedRangeNotSatisfiable:
		return 0, io.EOF
	case http.StatusNotFound:
		return 0, fmt.Errorf("http source: %s: object not found", s.url)
	default:
		return 0, fmt.Errorf("http source: %s: %s", s.url, resp.Status)
	}
	var total int
	if resp.StatusCode == http.StatusOK {
		// The server ignored the Range header: skip to the offset.
		if _, err := io.CopyN(io.Discard, resp.Body, off); err != nil {
			if errors.Is(err, io.EOF) {
				return 0, io.EOF
			}
			return 0, fmt.Errorf("http source: skip to offset: %w", err)
		}
	}
	for total < len(p) {
		n, rerr := resp.Body.Read(p[total:])
		total += n
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				if total < len(p) {
					return total, io.EOF
				}
				return total, nil
			}
			return total, fmt.Errorf("http source: body: %w", rerr)
		}
	}
	return total, nil
}

// Size implements backend.Object with a HEAD request.
func (s *HTTPSource) Size() (int64, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	resp, err := s.client.Head(s.url)
	if err != nil {
		return 0, fmt.Errorf("http source: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("http source: %s: %s", s.url, resp.Status)
	}
	if resp.ContentLength < 0 {
		return 0, fmt.Errorf("http source: %s: no content length", s.url)
	}
	return resp.ContentLength, nil
}

// readAll fetches the entire current object.
func (s *HTTPSource) readAll() ([]byte, error) {
	resp, err := s.client.Get(s.url)
	if err != nil {
		return nil, fmt.Errorf("http source: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return nil, fmt.Errorf("http source: %s: %s", s.url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// put replaces the object.
func (s *HTTPSource) put(data []byte) error {
	req, err := http.NewRequest(http.MethodPut, s.url, strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("http source: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("http source: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated &&
		resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("http source: PUT %s: %s", s.url, resp.Status)
	}
	return nil
}

// WriteAt implements backend.Object as read-modify-write PUT (HTTP has no ranged
// write).
func (s *HTTPSource) WriteAt(p []byte, off int64) (int, error) {
	if err := s.guard(); err != nil {
		return 0, err
	}
	cur, err := s.readAll()
	if err != nil {
		return 0, err
	}
	end := off + int64(len(p))
	if end > int64(len(cur)) {
		grown := make([]byte, end)
		copy(grown, cur)
		cur = grown
	}
	copy(cur[off:end], p)
	if err := s.put(cur); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Truncate implements backend.Object.
func (s *HTTPSource) Truncate(n int64) error {
	if err := s.guard(); err != nil {
		return err
	}
	cur, err := s.readAll()
	if err != nil {
		return err
	}
	if n <= int64(len(cur)) {
		cur = cur[:n]
	} else {
		grown := make([]byte, n)
		copy(grown, cur)
		cur = grown
	}
	return s.put(cur)
}

// Close implements backend.Object.
func (s *HTTPSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// ObjectServer is an http.Handler storing named objects, supporting GET
// (with single byte ranges), HEAD, PUT, and DELETE — enough HTTP for an
// active file to proxy "web" content.
type ObjectServer struct {
	mu      sync.Mutex
	objects map[string][]byte
}

var _ http.Handler = (*ObjectServer)(nil)

// NewObjectServer returns an empty object store handler.
func NewObjectServer() *ObjectServer {
	return &ObjectServer{objects: make(map[string][]byte)}
}

// Put seeds or replaces an object (the path must begin with "/").
func (o *ObjectServer) Put(path string, data []byte) {
	copied := make([]byte, len(data))
	copy(copied, data)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.objects[path] = copied
}

// Get returns a copy of the object at path.
func (o *ObjectServer) Get(path string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	data, ok := o.objects[path]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// ServeHTTP implements http.Handler.
func (o *ObjectServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		o.mu.Lock()
		data, ok := o.objects[r.URL.Path]
		o.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		if rng := r.Header.Get("Range"); rng != "" && r.Method == http.MethodGet {
			start, end, ok := parseRange(rng, int64(len(data)))
			if !ok {
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", len(data)))
				w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
				return
			}
			w.Header().Set("Content-Range",
				fmt.Sprintf("bytes %d-%d/%d", start, end, len(data)))
			w.Header().Set("Content-Length", strconv.FormatInt(end-start+1, 10))
			w.WriteHeader(http.StatusPartialContent)
			w.Write(data[start : end+1])
			return
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		if r.Method == http.MethodGet {
			w.Write(data)
		}

	case http.MethodPut:
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "read body", http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		o.objects[r.URL.Path] = body
		o.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)

	case http.MethodDelete:
		o.mu.Lock()
		delete(o.objects, r.URL.Path)
		o.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)

	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// parseRange parses a single "bytes=a-b" range against size.
func parseRange(header string, size int64) (start, end int64, ok bool) {
	spec, found := strings.CutPrefix(header, "bytes=")
	if !found || strings.Contains(spec, ",") {
		return 0, 0, false
	}
	startStr, endStr, found := strings.Cut(spec, "-")
	if !found {
		return 0, 0, false
	}
	start, err := strconv.ParseInt(startStr, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, false
	}
	if endStr == "" {
		return start, size - 1, true
	}
	end, err = strconv.ParseInt(endStr, 10, 64)
	if err != nil || end < start {
		return 0, 0, false
	}
	if end >= size {
		end = size - 1
	}
	return start, end, true
}
