// Package faultinject is the chaos harness for the transport stack. It
// injects failures at the WIRE layer — below the protocol, where real
// networks and dying processes misbehave: connections drop mid-frame and
// writes land partially. Operation-level injection (an object answering with
// errors, or slowly) is the Injector, which the errorfs backend applies to
// any other backend.
package faultinject

import (
	"errors"
	"io"
	"sync"
)

// ErrInjected is the base error for injected wire faults.
var ErrInjected = errors.New("faultinject: injected wire fault")

// PartialWriter passes writes through until limit total bytes have shipped,
// then fails every write — after emitting any remaining budget, so the
// victim observes a PARTIAL write (n > 0 with an error), the hardest case
// for framed protocols: the stream now holds a torn frame.
type PartialWriter struct {
	mu      sync.Mutex
	w       io.Writer
	limit   int
	written int
	err     error
}

// NewPartialWriter wraps w, allowing limit bytes through before failing with
// err (ErrInjected when err is nil).
func NewPartialWriter(w io.Writer, limit int, err error) *PartialWriter {
	if err == nil {
		err = ErrInjected
	}
	return &PartialWriter{w: w, limit: limit, err: err}
}

// Write implements io.Writer.
func (p *PartialWriter) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	budget := p.limit - p.written
	if budget <= 0 {
		return 0, p.err
	}
	if len(b) <= budget {
		n, err := p.w.Write(b)
		p.written += n
		return n, err
	}
	n, err := p.w.Write(b[:budget])
	p.written += n
	if err != nil {
		return n, err
	}
	return n, p.err
}

// Written reports how many bytes passed through before the fault tripped.
func (p *PartialWriter) Written() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.written
}
