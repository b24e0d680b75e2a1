package faultinject

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is a TCP man-in-the-middle for chaos runs: traffic between a client
// and target flows through it, and faults are injected on command —
// connection drops and mid-frame truncation. It stands where a real
// network failure would, so the code under test exercises exactly the error
// paths production would see.
type Proxy struct {
	target string

	mu     sync.Mutex
	ln     net.Listener
	links  map[*link]struct{}
	closed bool
	wg     sync.WaitGroup

	truncateNext atomic.Int64 // >=0: cut the next server->client chunk to this many bytes, then drop the link

	drops atomic.Uint64
}

// link is one proxied connection pair.
type link struct {
	client net.Conn
	server net.Conn
}

func (l *link) teardown() {
	l.client.Close()
	l.server.Close()
}

// NewProxy returns a proxy forwarding to target; call Start to begin.
func NewProxy(target string) *Proxy {
	p := &Proxy{target: target, links: make(map[*link]struct{})}
	p.truncateNext.Store(-1)
	return p
}

// Start listens on an ephemeral localhost port and returns its address —
// dial this instead of the real target.
func (p *Proxy) Start() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("proxy listen: %w", err)
	}
	p.mu.Lock()
	p.ln = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			conn.Close()
			continue
		}
		l := &link{client: conn, server: server}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			l.teardown()
			return
		}
		p.links[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pump(l, l.client, l.server, false)
		go p.pump(l, l.server, l.client, true)
	}
}

// pump copies one direction of a link chunk by chunk, applying the fault
// knobs between chunks. fromServer marks the server->client direction, the
// one truncation targets (a torn RESPONSE frame is what a crashing server
// leaves behind).
func (p *Proxy) pump(l *link, src, dst net.Conn, fromServer bool) {
	defer p.wg.Done()
	defer p.retire(l)
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			out := buf[:n]
			if fromServer {
				if cut := p.truncateNext.Swap(-1); cut >= 0 {
					// Forward a prefix of the frame, then kill the link:
					// the client holds a torn frame and a dead conn.
					if int(cut) < len(out) {
						out = out[:cut]
					}
					dst.Write(out)
					return
				}
			}
			if _, werr := dst.Write(out); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

// retire removes a link and closes both halves (idempotent).
func (p *Proxy) retire(l *link) {
	p.mu.Lock()
	_, live := p.links[l]
	delete(p.links, l)
	p.mu.Unlock()
	if live {
		l.teardown()
	}
}

// DropActive severs every live proxied connection — the wire goes dead under
// the protocol, mid-frame if traffic is flowing.
func (p *Proxy) DropActive() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	for _, l := range links {
		p.drops.Add(1)
		l.teardown()
	}
}

// Drops reports how many links have been severed by DropActive.
func (p *Proxy) Drops() uint64 { return p.drops.Load() }

// TruncateNextResponse cuts the next server-to-client chunk to n bytes and
// then severs that link: the client receives a torn frame followed by EOF.
func (p *Proxy) TruncateNextResponse(n int) { p.truncateNext.Store(int64(n)) }

// Close stops the listener and severs all links.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	links := make([]*link, 0, len(p.links))
	for l := range p.links {
		links = append(links, l)
	}
	p.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, l := range links {
		l.teardown()
	}
	p.wg.Wait()
	return nil
}
