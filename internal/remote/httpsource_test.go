package remote

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/internal/backend"
	"repro/internal/backend/conformance"
)

func startObjectServer(t *testing.T) (*ObjectServer, *httptest.Server) {
	t.Helper()
	obj := NewObjectServer()
	srv := httptest.NewServer(obj)
	t.Cleanup(srv.Close)
	return obj, srv
}

func TestHTTPSourceReadAt(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/doc", []byte("0123456789"))
	s := NewHTTPSource(srv.URL+"/doc", srv.Client())
	defer s.Close()

	buf := make([]byte, 4)
	if n, err := s.ReadAt(buf, 3); n != 4 || err != nil || string(buf) != "3456" {
		t.Errorf("ReadAt = (%d, %v, %q)", n, err, buf)
	}
	// Short read at the tail.
	n, err := s.ReadAt(buf, 8)
	if n != 2 || !errors.Is(err, io.EOF) || string(buf[:n]) != "89" {
		t.Errorf("tail ReadAt = (%d, %v, %q)", n, err, buf[:n])
	}
	// Past the end.
	if _, err := s.ReadAt(buf, 50); !errors.Is(err, io.EOF) {
		t.Errorf("past-end err = %v, want EOF", err)
	}
	// Zero-length read.
	if n, err := s.ReadAt(nil, 0); n != 0 || err != nil {
		t.Errorf("empty ReadAt = (%d, %v)", n, err)
	}
}

func TestHTTPSourceSize(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/doc", []byte("hello"))
	s := NewHTTPSource(srv.URL+"/doc", srv.Client())
	defer s.Close()
	if size, err := s.Size(); size != 5 || err != nil {
		t.Errorf("Size = (%d, %v)", size, err)
	}
}

func TestHTTPSourceWriteAt(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/doc", []byte("aaaaaaaa"))
	s := NewHTTPSource(srv.URL+"/doc", srv.Client())
	defer s.Close()

	if n, err := s.WriteAt([]byte("BB"), 3); n != 2 || err != nil {
		t.Fatalf("WriteAt = (%d, %v)", n, err)
	}
	got, _ := obj.Get("/doc")
	if string(got) != "aaaBBaaa" {
		t.Errorf("object = %q", got)
	}
	// Extending write.
	if _, err := s.WriteAt([]byte("tail"), 10); err != nil {
		t.Fatal(err)
	}
	got, _ = obj.Get("/doc")
	if len(got) != 14 || string(got[10:]) != "tail" {
		t.Errorf("extended object = %q", got)
	}
}

func TestHTTPSourceWriteCreatesMissing(t *testing.T) {
	obj, srv := startObjectServer(t)
	s := NewHTTPSource(srv.URL+"/new", srv.Client())
	defer s.Close()
	if _, err := s.WriteAt([]byte("fresh"), 0); err != nil {
		t.Fatal(err)
	}
	got, ok := obj.Get("/new")
	if !ok || string(got) != "fresh" {
		t.Errorf("object = (%q, %v)", got, ok)
	}
}

func TestHTTPSourceTruncate(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/doc", []byte("0123456789"))
	s := NewHTTPSource(srv.URL+"/doc", srv.Client())
	defer s.Close()
	if err := s.Truncate(4); err != nil {
		t.Fatal(err)
	}
	got, _ := obj.Get("/doc")
	if string(got) != "0123" {
		t.Errorf("after shrink = %q", got)
	}
	if err := s.Truncate(6); err != nil {
		t.Fatal(err)
	}
	got, _ = obj.Get("/doc")
	if len(got) != 6 || got[5] != 0 {
		t.Errorf("after grow = %v", got)
	}
}

func TestHTTPSourceClosed(t *testing.T) {
	_, srv := startObjectServer(t)
	s := NewHTTPSource(srv.URL+"/doc", srv.Client())
	s.Close()
	if _, err := s.ReadAt(make([]byte, 1), 0); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("ReadAt err = %v, want backend.ErrObjectClosed", err)
	}
	if _, err := s.Size(); !errors.Is(err, backend.ErrObjectClosed) {
		t.Errorf("Size err = %v, want backend.ErrObjectClosed", err)
	}
}

func TestHTTPSourceMissingObject(t *testing.T) {
	_, srv := startObjectServer(t)
	s := NewHTTPSource(srv.URL+"/absent", srv.Client())
	defer s.Close()
	if _, err := s.ReadAt(make([]byte, 1), 0); err == nil {
		t.Error("ReadAt of missing object succeeded")
	}
}

func TestHTTPSourceAgainstRangeIgnoringServer(t *testing.T) {
	// A plain file-style handler that ignores Range: the client must skip
	// to the offset itself.
	content := []byte("abcdefghij")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(content)
	}))
	defer srv.Close()
	s := NewHTTPSource(srv.URL, srv.Client())
	defer s.Close()
	buf := make([]byte, 3)
	if n, err := s.ReadAt(buf, 4); n != 3 || err != nil || string(buf) != "efg" {
		t.Errorf("ReadAt = (%d, %v, %q)", n, err, buf)
	}
}

func TestHTTPSourceRoundTripProperty(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/p", nil)
	s := NewHTTPSource(srv.URL+"/p", srv.Client())
	defer s.Close()

	f := func(data []byte, off uint8) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 512 {
			data = data[:512]
		}
		o := int64(off)
		if _, err := s.WriteAt(data, o); err != nil {
			return false
		}
		back := make([]byte, len(data))
		if _, err := s.ReadAt(back, o); err != nil && !errors.Is(err, io.EOF) {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParseRange(t *testing.T) {
	tests := []struct {
		give      string
		size      int64
		wantStart int64
		wantEnd   int64
		wantOK    bool
	}{
		{give: "bytes=0-3", size: 10, wantStart: 0, wantEnd: 3, wantOK: true},
		{give: "bytes=5-", size: 10, wantStart: 5, wantEnd: 9, wantOK: true},
		{give: "bytes=8-99", size: 10, wantStart: 8, wantEnd: 9, wantOK: true},
		{give: "bytes=10-12", size: 10, wantOK: false},
		{give: "bytes=-5", size: 10, wantOK: false},
		{give: "bytes=3-1", size: 10, wantOK: false},
		{give: "bytes=0-1,4-5", size: 10, wantOK: false},
		{give: "items=0-1", size: 10, wantOK: false},
		{give: "bytes=x-y", size: 10, wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			start, end, ok := parseRange(tt.give, tt.size)
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && (start != tt.wantStart || end != tt.wantEnd) {
				t.Errorf("range = [%d,%d], want [%d,%d]", start, end, tt.wantStart, tt.wantEnd)
			}
		})
	}
}

func TestObjectServerDelete(t *testing.T) {
	obj, srv := startObjectServer(t)
	obj.Put("/gone", []byte("x"))
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/gone", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := obj.Get("/gone"); ok {
		t.Error("object survived DELETE")
	}
}

func TestObjectServerMethodNotAllowed(t *testing.T) {
	_, srv := startObjectServer(t)
	req, err := http.NewRequest(http.MethodPatch, srv.URL+"/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

// TestHTTPSourceConformanceRO runs the shared read-only conformance profile
// over HTTPSource: ranged-GET offset math, EOF mapping from 416 responses,
// zero-length probes, and concurrent readers all match os.File semantics.
func TestHTTPSourceConformanceRO(t *testing.T) {
	conformance.RunRO(t, func(t *testing.T, content []byte) conformance.Object {
		obj, srv := startObjectServer(t)
		obj.Put("/obj", content)
		return NewHTTPSource(srv.URL+"/obj", srv.Client())
	})
}
