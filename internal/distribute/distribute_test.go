package distribute

import (
	"errors"
	"strings"
	"sync"
	"testing"
)

// recordingSink remembers deliveries and can fail selected addresses.
type recordingSink struct {
	mu        sync.Mutex
	delivered map[string][]string
	failAddrs map[string]error
}

func newRecordingSink() *recordingSink {
	return &recordingSink{
		delivered: make(map[string][]string),
		failAddrs: make(map[string]error),
	}
}

func (s *recordingSink) Deliver(addr string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err, ok := s.failAddrs[addr]; ok {
		return err
	}
	s.delivered[addr] = append(s.delivered[addr], string(payload))
	return nil
}

func TestParseMessage(t *testing.T) {
	raw := "To: alice@a, bob@b\nSubject: hello there\n\nline one\nline two\n"
	msg, err := ParseMessage([]byte(raw))
	if err != nil {
		t.Fatalf("ParseMessage: %v", err)
	}
	if len(msg.To) != 2 || msg.To[0] != "alice@a" || msg.To[1] != "bob@b" {
		t.Errorf("To = %v", msg.To)
	}
	if msg.Subject != "hello there" {
		t.Errorf("Subject = %q", msg.Subject)
	}
	if string(msg.Body) != "line one\nline two\n" {
		t.Errorf("Body = %q", msg.Body)
	}
}

func TestParseMessageVariants(t *testing.T) {
	tests := []struct {
		name    string
		give    string
		wantTo  []string
		wantErr error
	}{
		{name: "case-insensitive header", give: "TO: x@y\n\nbody", wantTo: []string{"x@y"}},
		{name: "no recipients", give: "Subject: s\n\nbody", wantErr: ErrNoRecipients},
		{name: "empty", give: "", wantErr: ErrNoRecipients},
		{name: "bad header line", give: "not a header\n\nbody", wantErr: ErrBadMessage},
		{name: "spaces in list", give: "To:  a@a ,  , b@b \n\n.", wantTo: []string{"a@a", "b@b"}},
		{name: "unknown headers ignored", give: "To: a@a\nX-Priority: 1\n\nbody", wantTo: []string{"a@a"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			msg, err := ParseMessage([]byte(tt.give))
			if tt.wantErr != nil {
				if !errors.Is(err, tt.wantErr) {
					t.Errorf("err = %v, want %v", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseMessage: %v", err)
			}
			if strings.Join(msg.To, ",") != strings.Join(tt.wantTo, ",") {
				t.Errorf("To = %v, want %v", msg.To, tt.wantTo)
			}
		})
	}
}

func TestOutboxSendsToParsedRecipients(t *testing.T) {
	sink := newRecordingSink()
	outbox := NewOutbox(sink)
	raw := "To: alice@a, bob@b\n\nhi both\n"
	if err := outbox.Send([]byte(raw)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	for _, addr := range []string{"alice@a", "bob@b"} {
		got := sink.delivered[addr]
		if len(got) != 1 || got[0] != raw {
			t.Errorf("delivery to %s = %v", addr, got)
		}
	}
}

func TestOutboxRejectsBadMessage(t *testing.T) {
	outbox := NewOutbox(newRecordingSink())
	if err := outbox.Send([]byte("Subject: no recipients\n\nbody")); !errors.Is(err, ErrNoRecipients) {
		t.Errorf("Send err = %v, want ErrNoRecipients", err)
	}
}

func TestOutboxPartialFailure(t *testing.T) {
	boom := errors.New("mailbox full")
	sink := newRecordingSink()
	sink.failAddrs["bad@x"] = boom
	outbox := NewOutbox(sink)
	err := outbox.Send([]byte("To: good@x, bad@x\n\nbody"))
	if !errors.Is(err, boom) {
		t.Errorf("Send err = %v, want wrapped %v", err, boom)
	}
	if len(sink.delivered["good@x"]) != 1 {
		t.Error("good recipient skipped after failure")
	}
}
