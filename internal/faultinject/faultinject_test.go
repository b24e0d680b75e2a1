package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/faultinject/leaktest"
)

func TestPartialWriterTearsMidWrite(t *testing.T) {
	var sink bytes.Buffer
	boom := errors.New("cable cut")
	pw := NewPartialWriter(&sink, 5, boom)

	if n, err := pw.Write([]byte("abc")); n != 3 || err != nil {
		t.Fatalf("within budget: (%d, %v)", n, err)
	}
	n, err := pw.Write([]byte("defgh"))
	if n != 2 || !errors.Is(err, boom) {
		t.Fatalf("crossing budget: (%d, %v), want (2, %v)", n, err, boom)
	}
	if got := sink.String(); got != "abcde" {
		t.Fatalf("sink holds %q, want the torn prefix \"abcde\"", got)
	}
	if n, err := pw.Write([]byte("x")); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("after trip: (%d, %v)", n, err)
	}
	if pw.Written() != 5 {
		t.Fatalf("Written = %d", pw.Written())
	}
}

// echoListener accepts connections and echoes bytes back until they close.
func echoListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	return ln.Addr().String()
}

func TestProxyForwardsAndDrops(t *testing.T) {
	leaktest.Check(t)
	p := NewProxy(echoListener(t))
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo through proxy: %q, %v", buf, err)
	}

	p.DropActive()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("read succeeded on a dropped link")
	}
	if p.Drops() == 0 {
		t.Fatal("drop not recorded")
	}
}

func TestProxyTruncatesResponse(t *testing.T) {
	leaktest.Check(t)
	p := NewProxy(echoListener(t))
	addr, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	p.TruncateNextResponse(3)
	if _, err := conn.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, err := io.ReadAll(conn) // torn prefix, then EOF from the severed link
	if len(got) > 3 {
		t.Fatalf("received %d bytes through a 3-byte truncation (%q, err=%v)", len(got), got, err)
	}
}
