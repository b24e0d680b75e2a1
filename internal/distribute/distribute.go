// Package distribute implements the sentinel action of pushing information
// to several destinations, "triggered by file operations against the active
// file" (§3, Distribution) — the outbox that mails whatever is written to
// it, the tee that replicates a stream to many files.
package distribute

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
)

// Sink receives one distributed payload.
type Sink interface {
	// Deliver pushes payload to the destination named by addr.
	Deliver(addr string, payload []byte) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(addr string, payload []byte) error

var _ Sink = (SinkFunc)(nil)

// Deliver implements Sink.
func (f SinkFunc) Deliver(addr string, payload []byte) error { return f(addr, payload) }

// Distribution errors.
var (
	ErrNoRecipients = errors.New("distribute: message names no recipients")
	ErrBadMessage   = errors.New("distribute: malformed message")
)

// Message is a parsed outbox message: headers plus body.
type Message struct {
	To      []string
	Subject string
	Body    []byte
}

// ParseMessage extracts recipients from the message text, the sentinel
// behaviour where it "parses the data written to the file to extract the
// 'To' addresses and send the data to each recipient" (§3). The expected
// form is RFC-822-like: header lines, a blank line, then the body.
//
//	To: alice@a, bob@b
//	Subject: greetings
//
//	body text...
func ParseMessage(raw []byte) (Message, error) {
	var msg Message
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64*1024), 1<<20)

	inHeader := true
	var body bytes.Buffer
	for sc.Scan() {
		line := sc.Text()
		if inHeader {
			if line == "" {
				inHeader = false
				continue
			}
			name, value, ok := strings.Cut(line, ":")
			if !ok {
				return Message{}, fmt.Errorf("%w: header line %q", ErrBadMessage, line)
			}
			value = strings.TrimSpace(value)
			switch strings.ToLower(strings.TrimSpace(name)) {
			case "to":
				for _, addr := range strings.Split(value, ",") {
					if a := strings.TrimSpace(addr); a != "" {
						msg.To = append(msg.To, a)
					}
				}
			case "subject":
				msg.Subject = value
			default:
				// Unknown headers are carried in the body verbatim? No —
				// they are simply ignored, like the prototype's minimal
				// parser.
			}
			continue
		}
		body.Write(sc.Bytes())
		body.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return Message{}, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if len(msg.To) == 0 {
		return Message{}, ErrNoRecipients
	}
	msg.Body = body.Bytes()
	return msg, nil
}

// Outbox distributes written messages to their parsed recipients.
type Outbox struct {
	sink Sink
}

// NewOutbox returns an outbox distributing through sink.
func NewOutbox(sink Sink) *Outbox {
	return &Outbox{sink: sink}
}

// Send parses raw and delivers it to each recipient.
func (o *Outbox) Send(raw []byte) error {
	msg, err := ParseMessage(raw)
	if err != nil {
		return err
	}
	var errs []error
	for _, addr := range msg.To {
		if err := o.sink.Deliver(addr, raw); err != nil {
			errs = append(errs, fmt.Errorf("deliver to %s: %w", addr, err))
		}
	}
	return errors.Join(errs...)
}
