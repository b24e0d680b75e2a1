package program_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/registry"
	"repro/internal/remote"
	"repro/internal/vfs"
	"repro/internal/wire"
)

func TestMain(m *testing.M) {
	program.RegisterAll()
	core.RunChildIfRequested()
	if path := os.Getenv(holdLockingEnv); path != "" {
		holdLockingRange(path)
	}
	os.Exit(m.Run())
}

func createAF(t *testing.T, m vfs.Manifest) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "file.af")
	if err := vfs.Create(path, m); err != nil {
		t.Fatalf("vfs.Create: %v", err)
	}
	return path
}

func open(t *testing.T, path string, strategy core.Strategy) *core.Handle {
	t.Helper()
	h, err := core.Open(path, core.Options{Strategy: strategy})
	if err != nil {
		t.Fatalf("core.Open: %v", err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func TestQuotesProgramReflectsLatestOnOpen(t *testing.T) {
	srv := remote.NewQuoteServer([]remote.Quote{
		{Symbol: "AAPL", Cents: 10000},
		{Symbol: "MSFT", Cents: 20000},
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "quotes"},
		NoData:  true,
		Params:  map[string]string{"addrs": addr},
	})

	h := open(t, path, core.StrategyThread)
	first, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != "AAPL\t100.00\nMSFT\t200.00\n" {
		t.Errorf("ticker = %q", first)
	}

	// Price moves; a fresh open sees the new listing ("every time the file
	// is opened").
	srv.SetQuote("AAPL", 12345)
	h2 := open(t, path, core.StrategyDirect)
	second, err := io.ReadAll(h2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(second), "AAPL\t123.45") {
		t.Errorf("refreshed ticker = %q", second)
	}
}

func TestQuotesProgramMergesServers(t *testing.T) {
	srvA := remote.NewQuoteServer([]remote.Quote{{Symbol: "ZZZ", Cents: 100}})
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB := remote.NewQuoteServer([]remote.Quote{{Symbol: "AAA", Cents: 200}})
	addrB, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "quotes"},
		NoData:  true,
		Params:  map[string]string{"addrs": addrA + ", " + addrB},
	})
	h := open(t, path, core.StrategyDirect)
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	want := "AAA\t2.00\nZZZ\t1.00\n" // merged and sorted across servers
	if string(got) != want {
		t.Errorf("merged ticker = %q, want %q", got, want)
	}
}

func TestQuotesProgramRefreshControl(t *testing.T) {
	srv := remote.NewQuoteServer([]remote.Quote{{Symbol: "X", Cents: 100}})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "quotes"},
		NoData:  true,
		Params:  map[string]string{"addrs": addr},
	})
	h := open(t, path, core.StrategyThread)
	srv.SetQuote("X", 999)
	if _, err := h.Control([]byte("refresh")); err != nil {
		t.Fatalf("Control(refresh): %v", err)
	}
	buf := make([]byte, 64)
	n, _ := h.ReadAt(buf, 0)
	if !strings.Contains(string(buf[:n]), "9.99") {
		t.Errorf("after refresh = %q", buf[:n])
	}
	if _, err := h.Control([]byte("bogus")); err == nil {
		t.Error("unknown control accepted")
	}
}

func TestQuotesProgramRejectsWrites(t *testing.T) {
	srv := remote.NewQuoteServer(nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "quotes"},
		NoData:  true,
		Params:  map[string]string{"addrs": addr},
	})
	h := open(t, path, core.StrategyDirect)
	if _, err := h.Write([]byte("x")); !errors.Is(err, wire.ErrUnsupported) {
		t.Errorf("Write err = %v, want ErrUnsupported", err)
	}
}

func TestQuotesProgramRequiresServers(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "quotes"},
		NoData:  true,
	})
	if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
		t.Error("Open without addrs succeeded")
	}
}

func TestInboxAggregatesMultipleServers(t *testing.T) {
	srvA := remote.NewMailServer()
	addrA, err := srvA.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Close()
	srvB := remote.NewMailServer()
	addrB, err := srvB.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	srvA.Deposit("alice", []byte("To: alice@a\n\nmessage on A\n"))
	srvB.Deposit("alice", []byte("To: alice@b\n\nmessage on B\n"))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "inbox"},
		NoData:  true,
		Params: map[string]string{
			"servers": addrA + "/alice, " + addrB + "/alice",
		},
	})
	h := open(t, path, core.StrategyThread)
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	text := string(got)
	if !strings.Contains(text, "message on A") || !strings.Contains(text, "message on B") {
		t.Errorf("inbox = %q", text)
	}
	if strings.Count(text, "From alice\n") != 2 {
		t.Errorf("expected 2 mbox delimiters in %q", text)
	}
	// RETR mode leaves the messages on the servers.
	if srvA.Count("alice") != 1 || srvB.Count("alice") != 1 {
		t.Error("messages were removed without take=true")
	}
}

func TestInboxTakeDrainsServers(t *testing.T) {
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Deposit("u", []byte("one"))

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "inbox"},
		NoData:  true,
		Params:  map[string]string{"servers": addr + "/u", "take": "true"},
	})
	h := open(t, path, core.StrategyDirect)
	if _, err := io.ReadAll(h); err != nil {
		t.Fatal(err)
	}
	if srv.Count("u") != 0 {
		t.Error("take=true left messages on the server")
	}
}

func TestInboxFetchControl(t *testing.T) {
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "inbox"},
		NoData:  true,
		Params:  map[string]string{"servers": addr + "/u"},
	})
	h := open(t, path, core.StrategyThread)
	if size, _ := h.Size(); size != 0 {
		t.Fatalf("fresh inbox size = %d", size)
	}
	srv.Deposit("u", []byte("late arrival"))
	if _, err := h.Control([]byte("fetch")); err != nil {
		t.Fatalf("Control(fetch): %v", err)
	}
	buf := make([]byte, 128)
	n, _ := h.ReadAt(buf, 0)
	if !strings.Contains(string(buf[:n]), "late arrival") {
		t.Errorf("after fetch = %q", buf[:n])
	}
}

func TestInboxBadSpecs(t *testing.T) {
	tests := []struct {
		name   string
		params map[string]string
	}{
		{name: "no servers", params: nil},
		{name: "malformed spec", params: map[string]string{"servers": "no-slash-here"}},
		{name: "bad take", params: map[string]string{"servers": "h/p", "take": "perhaps"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "inbox"},
				NoData:  true,
				Params:  tt.params,
			})
			if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
				t.Error("Open succeeded with bad configuration")
			}
		})
	}
}

func TestOutboxDeliversOnClose(t *testing.T) {
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "outbox"},
		NoData:  true,
		Params:  map[string]string{"server": addr},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	raw := "To: alice@a, bob@b\nSubject: hi\n\nhello from the outbox\n"
	if _, err := h.Write([]byte(raw)); err != nil {
		t.Fatal(err)
	}
	// Not sent yet: delivery is the flush-triggered side effect.
	if srv.Count("alice@a") != 0 {
		t.Error("delivered before close/sync")
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, rcpt := range []string{"alice@a", "bob@b"} {
		msgs := srv.Messages(rcpt)
		if len(msgs) != 1 || string(msgs[0]) != raw {
			t.Errorf("mailbox %s = %q", rcpt, msgs)
		}
	}
}

func TestOutboxSyncSendsAndClears(t *testing.T) {
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "outbox"},
		NoData:  true,
		Params:  map[string]string{"server": addr},
	})
	h := open(t, path, core.StrategyDirect)
	h.Write([]byte("To: x@y\n\nfirst\n"))
	if err := h.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if srv.Count("x@y") != 1 {
		t.Fatal("message not delivered on sync")
	}
	// The outbox empties after sending.
	if size, _ := h.Size(); size != 0 {
		t.Errorf("outbox size after send = %d", size)
	}
	// A clean second sync sends nothing more.
	if err := h.Sync(); err != nil {
		t.Fatal(err)
	}
	if srv.Count("x@y") != 1 {
		t.Error("duplicate delivery on idle sync")
	}
}

func TestOutboxRejectsMessageWithoutRecipients(t *testing.T) {
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "outbox"},
		NoData:  true,
		Params:  map[string]string{"server": addr},
	})
	h := open(t, path, core.StrategyDirect)
	h.Write([]byte("Subject: lost\n\nno recipients\n"))
	if err := h.Sync(); err == nil {
		t.Error("Sync succeeded for a message without recipients")
	}
}

func TestLoggerConcurrentWritersThroughHandles(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "logger"},
	})
	const writers = 4
	const perWriter = 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
			if err != nil {
				t.Errorf("Open: %v", err)
				return
			}
			defer h.Close()
			for i := 0; i < perWriter; i++ {
				record := fmt.Sprintf("w%d-%d", w, i)
				if _, err := h.Write([]byte(record)); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	h := open(t, path, core.StrategyDirect)
	data, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(lines), writers*perWriter)
	}
	for _, line := range lines {
		if strings.Count(line, "w") != 1 {
			t.Fatalf("interleaved record %q", line)
		}
	}
}

func TestLoggerCompactsOnClose(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "logger"},
		Params:  map[string]string{"keep": "2"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Write([]byte(fmt.Sprintf("entry-%d", i)))
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(vfs.DataPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != "entry-3\nentry-4\n" {
		t.Errorf("compacted log = %q", stored)
	}
}

func TestRegistryFileRoundTrip(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "registryfile"},
	})

	// First session: write a configuration as plain text.
	h, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		t.Fatal(err)
	}
	text := "[system/network]\ndns = \"10.0.0.1\"\nmtu = 1500\n"
	if _, err := h.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Second session: the parsed registry comes back canonically rendered.
	h2 := open(t, path, core.StrategyDirect)
	got, err := io.ReadAll(h2)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := registry.Parse(got)
	if err != nil {
		t.Fatalf("rendered registry does not reparse: %v", err)
	}
	v, err := parsed.Get("system/network", "dns")
	if err != nil || v.Str != "10.0.0.1" {
		t.Errorf("dns = (%+v, %v)", v, err)
	}
	v, err = parsed.Get("system/network", "mtu")
	if err != nil || v.Int != 1500 {
		t.Errorf("mtu = (%+v, %v)", v, err)
	}
}

func TestRegistryFileRejectsMalformedEdit(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "registryfile"},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Write([]byte("this is not registry syntax")); err != nil {
		t.Fatal(err)
	}
	if err := h.Sync(); err == nil {
		t.Error("Sync accepted malformed registry text")
	}
	// The store is untouched by the rejected edit.
	stored, err := os.ReadFile(vfs.DataPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(stored, []byte("not registry syntax")) {
		t.Error("malformed edit reached the store")
	}
}

func TestRegistryFileEmptyStoreParsesAsEmpty(t *testing.T) {
	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "registryfile"},
	})
	h := open(t, path, core.StrategyDirect)
	got, err := io.ReadAll(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty registry renders %q", got)
	}
}

func TestGenerateBadParams(t *testing.T) {
	tests := []struct {
		name   string
		params map[string]string
	}{
		{name: "bad size", params: map[string]string{"size": "huge"}},
		{name: "negative size", params: map[string]string{"size": "-1"}},
		{name: "bad seed", params: map[string]string{"seed": "x"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "generate"},
				NoData:  true,
				Params:  tt.params,
			})
			if _, err := core.Open(path, core.Options{Strategy: core.StrategyDirect}); err == nil {
				t.Error("Open succeeded with bad parameters")
			}
		})
	}
}

func TestOutboxThroughSubprocessSentinel(t *testing.T) {
	// The full §3 outbox scenario through a real subprocess sentinel:
	// a legacy application writes an email to a file; a separate process
	// parses and distributes it.
	srv := remote.NewMailServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	path := createAF(t, vfs.Manifest{
		Program: vfs.ProgramSpec{Name: "outbox"},
		NoData:  true,
		Params:  map[string]string{"server": addr},
	})
	h, err := core.Open(path, core.Options{Strategy: core.StrategyProcess})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("To: remote@user\n\nvia subprocess\n")); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	msgs := srv.Messages("remote@user")
	if len(msgs) != 1 || !strings.Contains(string(msgs[0]), "via subprocess") {
		t.Errorf("delivered = %q", msgs)
	}
}
