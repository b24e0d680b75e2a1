package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	tests := []struct {
		give Op
		want string
	}{
		{OpOpen, "open"},
		{OpRead, "read"},
		{OpWrite, "write"},
		{OpSeek, "seek"},
		{OpSize, "size"},
		{OpTruncate, "truncate"},
		{OpSync, "sync"},
		{OpLock, "lock"},
		{OpUnlock, "unlock"},
		{OpStat, "stat"},
		{OpClose, "close"},
		{OpControl, "control"},
		{Op(0), "op(0)"},
		{Op(200), "op(200)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Op(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestStatusString(t *testing.T) {
	tests := []struct {
		give Status
		want string
	}{
		{StatusOK, "ok"},
		{StatusError, "error"},
		{StatusUnsupported, "unsupported"},
		{StatusEOF, "eof"},
		{StatusClosed, "closed"},
		{StatusNotFound, "not found"},
		{StatusBusy, "busy"},
		{Status(0), "status(0)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("Status(%d).String() = %q, want %q", tt.give, got, tt.want)
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		give Request
	}{
		{name: "read", give: Request{Op: OpRead, Seq: 1, Off: 1024, N: 512}},
		{name: "write", give: Request{Op: OpWrite, Seq: 7, Off: 0, N: 5, Data: []byte("hello")}},
		{name: "seek negative", give: Request{Op: OpSeek, Seq: 2, Off: -16, N: 2}},
		{name: "close empty", give: Request{Op: OpClose, Seq: 0xffffffff}},
		{name: "control payload", give: Request{Op: OpControl, Seq: 9, Data: []byte{0, 1, 2, 255}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteRequest(&tt.give); err != nil {
				t.Fatalf("WriteRequest: %v", err)
			}
			r := NewReader(&buf)
			got, err := r.ReadRequest()
			if err != nil {
				t.Fatalf("ReadRequest: %v", err)
			}
			if got.Op != tt.give.Op || got.Seq != tt.give.Seq ||
				got.Off != tt.give.Off || got.N != tt.give.N ||
				!bytes.Equal(got.Data, tt.give.Data) {
				t.Errorf("round trip = %+v, want %+v", got, tt.give)
			}
		})
	}
}

func TestResponseRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		give Response
	}{
		{name: "ok", give: Response{Status: StatusOK, Seq: 1, N: 512}},
		{name: "data", give: Response{Status: StatusOK, Seq: 2, N: 3, Data: []byte("abc")}},
		{name: "error msg", give: Response{Status: StatusError, Seq: 3, Msg: "remote source unreachable"}},
		{name: "msg and data", give: Response{Status: StatusEOF, Seq: 4, N: 2, Msg: "short", Data: []byte("xy")}},
		{name: "negative n", give: Response{Status: StatusOK, Seq: 5, N: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			if err := w.WriteResponse(&tt.give); err != nil {
				t.Fatalf("WriteResponse: %v", err)
			}
			r := NewReader(&buf)
			got, err := r.ReadResponse()
			if err != nil {
				t.Fatalf("ReadResponse: %v", err)
			}
			if got.Status != tt.give.Status || got.Seq != tt.give.Seq ||
				got.N != tt.give.N || got.Msg != tt.give.Msg ||
				!bytes.Equal(got.Data, tt.give.Data) {
				t.Errorf("round trip = %+v, want %+v", got, tt.give)
			}
		})
	}
}

func TestRequestRoundTripProperty(t *testing.T) {
	ops := []Op{OpOpen, OpRead, OpWrite, OpSeek, OpSize, OpTruncate, OpSync, OpLock, OpUnlock, OpStat, OpClose, OpControl}
	f := func(opIdx uint8, seq uint32, off, n int64, data []byte) bool {
		if len(data) > MaxPayload {
			data = data[:MaxPayload]
		}
		give := Request{Op: ops[int(opIdx)%len(ops)], Seq: seq, Off: off, N: n, Data: data}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteRequest(&give); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadRequest()
		if err != nil {
			return false
		}
		return got.Op == give.Op && got.Seq == give.Seq && got.Off == give.Off &&
			got.N == give.N && bytes.Equal(got.Data, give.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	sts := []Status{StatusOK, StatusError, StatusUnsupported, StatusEOF, StatusClosed, StatusNotFound, StatusBusy}
	f := func(stIdx uint8, seq uint32, n int64, msg string, data []byte) bool {
		if len(msg) > 1024 {
			msg = msg[:1024]
		}
		if len(data) > MaxPayload {
			data = data[:MaxPayload]
		}
		give := Response{Status: sts[int(stIdx)%len(sts)], Seq: seq, N: n, Msg: msg, Data: data}
		var buf bytes.Buffer
		if err := NewWriter(&buf).WriteResponse(&give); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadResponse()
		if err != nil {
			return false
		}
		return got.Status == give.Status && got.Seq == give.Seq && got.N == give.N &&
			got.Msg == give.Msg && bytes.Equal(got.Data, give.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	big := make([]byte, MaxPayload+1)
	if _, err := AppendRequest(nil, &Request{Op: OpWrite, Data: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("AppendRequest(oversized) err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := AppendResponse(nil, &Response{Status: StatusOK, Data: big}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("AppendResponse(oversized) err = %v, want ErrFrameTooLarge", err)
	}
}

func TestEncodeRejectsInvalidOpAndStatus(t *testing.T) {
	if _, err := AppendRequest(nil, &Request{Op: Op(0)}); !errors.Is(err, ErrBadOp) {
		t.Errorf("AppendRequest(bad op) err = %v, want ErrBadOp", err)
	}
	if _, err := AppendResponse(nil, &Response{Status: Status(0)}); !errors.Is(err, ErrBadStatus) {
		t.Errorf("AppendResponse(bad status) err = %v, want ErrBadStatus", err)
	}
}

func TestDecodeRequestErrors(t *testing.T) {
	tests := []struct {
		name    string
		give    []byte
		wantErr error
	}{
		{name: "short", give: []byte{1, 2, 3}, wantErr: ErrShortFrame},
		{name: "bad op", give: append([]byte{0}, make([]byte, reqHeaderLen-1)...), wantErr: ErrBadOp},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeRequest(tt.give); !errors.Is(err, tt.wantErr) {
				t.Errorf("DecodeRequest err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	// Valid header but message length pointing past the frame end.
	frame := make([]byte, rspHeaderLen)
	frame[0] = byte(StatusOK)
	binary.BigEndian.PutUint32(frame[13:17], 1000)
	tests := []struct {
		name    string
		give    []byte
		wantErr error
	}{
		{name: "short", give: []byte{1}, wantErr: ErrShortFrame},
		{name: "bad status", give: append([]byte{0}, make([]byte, rspHeaderLen-1)...), wantErr: ErrBadStatus},
		{name: "msg overrun", give: frame, wantErr: ErrShortFrame},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeResponse(tt.give); !errors.Is(err, tt.wantErr) {
				t.Errorf("DecodeResponse err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestReaderRejectsHugeFrame(t *testing.T) {
	// A request whose payload is one byte past MaxPayload is one no Writer
	// would send, even though the frame fits under maxFrame.
	for _, frameLen := range []int{maxFrame + 1, reqHeaderLen + MaxPayload + 1} {
		var buf bytes.Buffer
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(frameLen))
		buf.Write(hdr[:])
		if _, err := NewReader(&buf).ReadRequest(); !errors.Is(err, ErrFrameTooLarge) {
			t.Errorf("frame length %d: ReadRequest err = %v, want ErrFrameTooLarge", frameLen, err)
		}
	}
}

func TestReaderTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 100)
	buf.Write(hdr[:])
	buf.Write([]byte{1, 2, 3}) // only 3 of 100 promised bytes
	if _, err := NewReader(&buf).ReadRequest(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("ReadRequest err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReaderCleanEOF(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")).ReadRequest(); !errors.Is(err, io.EOF) {
		t.Errorf("ReadRequest on empty stream err = %v, want io.EOF", err)
	}
}

func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	const count = 50
	rng := rand.New(rand.NewSource(42))
	var want []Request
	for i := 0; i < count; i++ {
		data := make([]byte, rng.Intn(2048))
		rng.Read(data)
		req := Request{Op: OpWrite, Seq: uint32(i), Off: rng.Int63(), N: int64(len(data)), Data: data}
		want = append(want, req)
		if err := w.WriteRequest(&req); err != nil {
			t.Fatalf("WriteRequest %d: %v", i, err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < count; i++ {
		got, err := r.ReadRequest()
		if err != nil {
			t.Fatalf("ReadRequest %d: %v", i, err)
		}
		if got.Seq != want[i].Seq || got.Off != want[i].Off || !bytes.Equal(got.Data, want[i].Data) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestStatusErrorMapping(t *testing.T) {
	tests := []struct {
		give    Status
		msg     string
		wantErr error
	}{
		{give: StatusOK, wantErr: nil},
		{give: StatusEOF, wantErr: io.EOF},
		{give: StatusUnsupported, wantErr: ErrUnsupported},
		{give: StatusClosed, wantErr: ErrClosed},
		{give: StatusNotFound, wantErr: ErrNotFound},
		{give: StatusBusy, wantErr: ErrBusy},
	}
	for _, tt := range tests {
		t.Run(tt.give.String(), func(t *testing.T) {
			err := ToError(OpRead, tt.give, tt.msg)
			if !errors.Is(err, tt.wantErr) {
				t.Errorf("ToError(%v) = %v, want %v", tt.give, err, tt.wantErr)
			}
		})
	}
}

func TestStatusErrorGeneric(t *testing.T) {
	err := ToError(OpWrite, StatusError, "disk full")
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("ToError generic = %T, want *RemoteError", err)
	}
	if remote.Op != OpWrite || remote.Msg != "disk full" {
		t.Errorf("RemoteError = %+v", remote)
	}
	if want := "sentinel write: disk full"; err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	tests := []struct {
		name    string
		give    error
		want    Status
		wantMsg string
	}{
		{name: "nil", give: nil, want: StatusOK},
		{name: "eof", give: io.EOF, want: StatusEOF},
		{name: "unsupported", give: ErrUnsupported, want: StatusUnsupported},
		{name: "closed", give: ErrClosed, want: StatusClosed},
		{name: "not found", give: ErrNotFound, want: StatusNotFound},
		{name: "busy", give: ErrBusy, want: StatusBusy},
		{name: "generic", give: errors.New("boom"), want: StatusError, wantMsg: "boom"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st, msg := FromError(tt.give)
			if st != tt.want || msg != tt.wantMsg {
				t.Errorf("FromError(%v) = (%v, %q), want (%v, %q)", tt.give, st, msg, tt.want, tt.wantMsg)
			}
		})
	}
}

func TestErrorStatusRoundTripProperty(t *testing.T) {
	// Any status produced by FromError must map back via ToError to an
	// error that FromError classifies identically (a fixed point).
	f := func(code uint8, msg string) bool {
		st := Status(code%7 + 1)
		if len(msg) > 256 {
			msg = msg[:256]
		}
		err := ToError(OpRead, st, msg)
		got, _ := FromError(err)
		return got == st
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDecodeAliasesBuffer(t *testing.T) {
	// Document (and pin) the aliasing contract: Reader reuses its buffer, so
	// payloads from a previous frame are invalidated by the next read.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRequest(&Request{Op: OpWrite, Seq: 1, Data: []byte("first")}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(&Request{Op: OpWrite, Seq: 2, Data: []byte("secnd")}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	first, err := r.ReadRequest()
	if err != nil {
		t.Fatal(err)
	}
	saved := string(first.Data) // copy before the next frame
	if _, err := r.ReadRequest(); err != nil {
		t.Fatal(err)
	}
	if saved != "first" {
		t.Errorf("copied payload = %q, want %q", saved, "first")
	}
	if !reflect.DeepEqual(first.Data, []byte("secnd")) {
		t.Errorf("aliased payload after second read = %q, want overwritten to %q", first.Data, "secnd")
	}
}
