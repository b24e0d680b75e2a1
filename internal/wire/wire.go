// Package wire implements the framed binary protocol spoken between the
// active-file stubs in the application and the sentinel on the other side of
// the control channel. It corresponds to the command set the paper's
// process-plus-control implementation carries over its third pipe ("read 50",
// "write 30", and every other file operation as a command with arguments).
//
// A request frame is laid out as:
//
//	[4B frame length][1B op][4B seq][8B off][8B n][payload]
//
// and a response frame as:
//
//	[4B frame length][1B status][4B seq][8B n][4B msg length][msg][payload]
//
// All integers are big-endian. The frame length counts everything after the
// length field itself.
//
// # Correlation and pipelining
//
// The Seq field is the correlation key of the protocol: a client may keep
// any number of requests in flight on one channel, and a server may answer
// them in any order — each response carries the Seq of the request it
// answers, and nothing else ties the two together. Clients allocate sequence
// numbers from a SeqCounter (concurrency-safe) and match responses by Seq;
// ipc.Mux implements that matching over a pipe pair. Strict request/response
// lockstep is merely the degenerate single-in-flight case.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
)

// Op identifies a file operation forwarded to the sentinel. The set mirrors
// the Win32 file API calls the paper's stubs intercept.
type Op uint8

// Operations carried on the control channel.
const (
	OpOpen     Op = iota + 1 // session establishment
	OpRead                   // read N bytes at Off
	OpWrite                  // write payload at Off
	OpSeek                   // seek to Off relative to whence N
	OpSize                   // GetFileSize
	OpTruncate               // set end of file to Off
	OpSync                   // flush buffers
	OpLock                   // lock byte range [Off, Off+N)
	OpUnlock                 // unlock byte range [Off, Off+N)
	OpStat                   // extended attributes
	OpClose                  // session teardown
	OpControl                // program-specific out-of-band command
	OpLease                  // acquire a read lease on the bound object; response N is the lease epoch
	OpLeaseAck               // acknowledge a lease-revoke push; N echoes the revoked epoch
	OpShardMap               // fetch the server's shard map; response Data is the encoded map, N its epoch
	OpApply                  // replica apply forwarded by a shard primary: N=ApplyWrite carries Off+Data, N=ApplyTruncate carries Off
)

// OpApply subkinds, carried in the request's N field.
const (
	ApplyWrite    = 0 // apply a replicated WriteAt(Data, Off)
	ApplyTruncate = 1 // apply a replicated Truncate(Off)
)

// PushSeq is the correlation key of SERVER-INITIATED frames. Clients allocate
// request Seqs starting at 1, so Seq 0 never answers a request; a response
// frame tagged PushSeq is a push (e.g. a lease revoke) routed to the mux's
// push handler instead of a waiter.
const PushSeq uint32 = 0

var opNames = map[Op]string{
	OpOpen:     "open",
	OpRead:     "read",
	OpWrite:    "write",
	OpSeek:     "seek",
	OpSize:     "size",
	OpTruncate: "truncate",
	OpSync:     "sync",
	OpLock:     "lock",
	OpUnlock:   "unlock",
	OpStat:     "stat",
	OpClose:    "close",
	OpControl:  "control",
	OpLease:    "lease",
	OpLeaseAck: "lease-ack",
	OpShardMap: "shardmap",
	OpApply:    "apply",
}

// String returns the lower-case operation name.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o names a known operation.
func (o Op) Valid() bool {
	_, ok := opNames[o]
	return ok
}

// Status is the result category carried in a response frame.
type Status uint8

// Response statuses.
const (
	StatusOK          Status = iota + 1 // success
	StatusError                         // generic failure; Msg has detail
	StatusUnsupported                   // operation not supported by strategy/program
	StatusEOF                           // end of file reached
	StatusClosed                        // session already closed
	StatusNotFound                      // named object missing
	StatusBusy                          // resource locked by another session
	StatusOverloaded                    // admission control: in-flight bound reached, retry later
	StatusQuota                         // tenant quota exhausted (sessions, bytes)
	StatusShutdown                      // server is draining; no new work accepted
)

var statusNames = map[Status]string{
	StatusOK:          "ok",
	StatusError:       "error",
	StatusUnsupported: "unsupported",
	StatusEOF:         "eof",
	StatusClosed:      "closed",
	StatusNotFound:    "not found",
	StatusBusy:        "busy",
	StatusOverloaded:  "overloaded",
	StatusQuota:       "quota exceeded",
	StatusShutdown:    "shutting down",
}

// String returns the lower-case status name.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Valid reports whether s names a known status.
func (s Status) Valid() bool {
	_, ok := statusNames[s]
	return ok
}

// SeqCounter allocates correlation sequence numbers for pipelined
// exchanges. It is safe for concurrent use; the zero value is ready. The
// first allocated value is 1, so Seq 0 never names an in-flight request.
type SeqCounter struct {
	n atomic.Uint32
}

// Next returns the next sequence number.
func (c *SeqCounter) Next() uint32 { return c.n.Add(1) }

// Set rewinds (or advances) the counter so the next Next returns v+1. It
// exists to stage wraparound in fault tests; production code never needs it.
func (c *SeqCounter) Set(v uint32) { c.n.Store(v) }

// Request is one operation sent from the application stubs to the sentinel.
type Request struct {
	Op   Op
	Seq  uint32 // matches the response; assigned by the client
	Off  int64  // offset, seek target, lock start, or truncate length
	N    int64  // count, seek whence, or lock length
	Data []byte // write payload or control argument
}

// Response answers exactly one Request, matched by Seq.
type Response struct {
	Status Status
	Seq    uint32
	N      int64  // bytes moved, new offset, or size
	Msg    string // human-readable detail when Status is not OK
	Data   []byte // read payload or control result
}

// Frame size limits. MaxPayload bounds a single read or write carried on the
// control channel; larger transfers must be chunked by the caller.
const (
	MaxPayload   = 1 << 22 // 4 MiB
	maxFrame     = MaxPayload + 64
	reqHeaderLen = 1 + 4 + 8 + 8
	rspHeaderLen = 1 + 4 + 8 + 4
)

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortFrame    = errors.New("wire: frame shorter than header")
	ErrBadOp         = errors.New("wire: unknown operation")
	ErrBadStatus     = errors.New("wire: unknown status")
)

// AppendRequest encodes r onto dst and returns the extended slice.
func AppendRequest(dst []byte, r *Request) ([]byte, error) {
	if len(r.Data) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	if !r.Op.Valid() {
		return dst, ErrBadOp
	}
	frameLen := reqHeaderLen + len(r.Data)
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, byte(r.Op))
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Off))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.N))
	dst = append(dst, r.Data...)
	return dst, nil
}

// AppendResponse encodes r onto dst and returns the extended slice.
func AppendResponse(dst []byte, r *Response) ([]byte, error) {
	if len(r.Data) > MaxPayload || len(r.Msg) > MaxPayload {
		return dst, ErrFrameTooLarge
	}
	if !r.Status.Valid() {
		return dst, ErrBadStatus
	}
	frameLen := rspHeaderLen + len(r.Msg) + len(r.Data)
	if frameLen > maxFrame {
		return dst, ErrFrameTooLarge
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(frameLen))
	dst = append(dst, byte(r.Status))
	dst = binary.BigEndian.AppendUint32(dst, r.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.N))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Msg)))
	dst = append(dst, r.Msg...)
	dst = append(dst, r.Data...)
	return dst, nil
}

// DecodeRequest parses a request from frame (the bytes after the length
// prefix). The returned Request's Data aliases frame.
func DecodeRequest(frame []byte) (Request, error) {
	if len(frame) < reqHeaderLen {
		return Request{}, ErrShortFrame
	}
	r := Request{
		Op:  Op(frame[0]),
		Seq: binary.BigEndian.Uint32(frame[1:5]),
		Off: int64(binary.BigEndian.Uint64(frame[5:13])),
		N:   int64(binary.BigEndian.Uint64(frame[13:21])),
	}
	if !r.Op.Valid() {
		return Request{}, ErrBadOp
	}
	if len(frame) > reqHeaderLen {
		r.Data = frame[reqHeaderLen:]
	}
	return r, nil
}

// DecodeResponse parses a response from frame (the bytes after the length
// prefix). The returned Response's Data aliases frame.
func DecodeResponse(frame []byte) (Response, error) {
	if len(frame) < rspHeaderLen {
		return Response{}, ErrShortFrame
	}
	r := Response{
		Status: Status(frame[0]),
		Seq:    binary.BigEndian.Uint32(frame[1:5]),
		N:      int64(binary.BigEndian.Uint64(frame[5:13])),
	}
	if !r.Status.Valid() {
		return Response{}, ErrBadStatus
	}
	msgLen := int(binary.BigEndian.Uint32(frame[13:17]))
	if msgLen < 0 || rspHeaderLen+msgLen > len(frame) {
		return Response{}, ErrShortFrame
	}
	r.Msg = string(frame[rspHeaderLen : rspHeaderLen+msgLen])
	if rest := frame[rspHeaderLen+msgLen:]; len(rest) > 0 {
		r.Data = rest
	}
	return r, nil
}

// Scratch-buffer tuning for the streaming Writer and Reader.
const (
	// inlinePayload is the largest payload copied into the frame scratch
	// and emitted as a single Write. Larger payloads are emitted vectored
	// (header and payload as separate slices), so they are never memcpy'd
	// into a frame buffer; the threshold keeps small frames — the paper's
	// block sizes — at one write syscall each.
	inlinePayload = 2048
	// scratchCap bounds the scratch a Writer or Reader retains between
	// frames. A frame that forces the scratch past this cap (an oversized
	// error message, a legacy whole-frame read) is served by a one-shot
	// allocation dropped afterwards, so one large frame can no longer pin
	// megabytes for the life of the session.
	scratchCap = 4096
)

// Writer serializes frames onto an io.Writer, reusing a small internal
// scratch for headers and inline payloads. Payloads above inlinePayload are
// written vectored via net.Buffers — on a net.Conn that is one writev, and
// on any other writer two sequential Writes — so the payload bytes are never
// copied into an intermediate frame buffer. It is not safe for concurrent
// use.
type Writer struct {
	w   io.Writer
	buf []byte
	vec [2][]byte
	// bufs is the reusable net.Buffers header for vectored writes. WriteTo
	// takes a pointer receiver, so a per-call local would escape and cost
	// one allocation per large frame; a field does not.
	bufs net.Buffers
}

// NewWriter returns a frame writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// flush emits the encoded envelope in fw.buf plus payload, vectored when the
// payload is large, then shrinks any oversized scratch.
func (fw *Writer) flush(payload []byte) error {
	var err error
	if len(payload) > inlinePayload {
		fw.vec[0], fw.vec[1] = fw.buf, payload
		fw.bufs = fw.vec[:]
		_, err = fw.bufs.WriteTo(fw.w)
		fw.bufs = nil
		fw.vec[0], fw.vec[1] = nil, nil
	} else {
		fw.buf = append(fw.buf, payload...)
		_, err = fw.w.Write(fw.buf)
	}
	if cap(fw.buf) > scratchCap {
		fw.buf = nil
	}
	return err
}

// WriteRequest encodes and writes one request frame.
func (fw *Writer) WriteRequest(r *Request) error {
	if len(r.Data) > MaxPayload {
		return ErrFrameTooLarge
	}
	if !r.Op.Valid() {
		return ErrBadOp
	}
	frameLen := reqHeaderLen + len(r.Data)
	b := fw.buf[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(frameLen))
	b = append(b, byte(r.Op))
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(r.Off))
	b = binary.BigEndian.AppendUint64(b, uint64(r.N))
	fw.buf = b
	return fw.flush(r.Data)
}

// WriteResponse encodes and writes one response frame.
func (fw *Writer) WriteResponse(r *Response) error {
	if len(r.Data) > MaxPayload || len(r.Msg) > MaxPayload {
		return ErrFrameTooLarge
	}
	if !r.Status.Valid() {
		return ErrBadStatus
	}
	frameLen := rspHeaderLen + len(r.Msg) + len(r.Data)
	if frameLen > maxFrame {
		return ErrFrameTooLarge
	}
	b := fw.buf[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(frameLen))
	b = append(b, byte(r.Status))
	b = binary.BigEndian.AppendUint32(b, r.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(r.N))
	b = binary.BigEndian.AppendUint32(b, uint32(len(r.Msg)))
	b = append(b, r.Msg...)
	fw.buf = b
	return fw.flush(r.Data)
}

// Reader deserializes frames from an io.Reader.
//
// Two decode styles are offered. The whole-frame ReadRequest/ReadResponse
// return payloads aliasing an internal scratch, valid only until the next
// read. The split ReadRequestHeader/ReadResponseHeader read just the
// envelope and leave the payload on the stream, so the caller can land it
// directly in its own (or a pooled) buffer via ReadPayload — the zero-copy
// path ipc.Mux and the file server use. After a header read, the caller must
// consume exactly the reported payload length with ReadPayload (or drop it
// with DiscardPayload) before the next header read.
//
// A Reader is not safe for concurrent use.
type Reader struct {
	r       io.Reader
	buf     []byte
	pending int // unread payload bytes of the current frame
}

// NewReader returns a frame reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// scratch returns the retained scratch grown to length n.
func (fr *Reader) scratch(n int) []byte {
	if cap(fr.buf) < n {
		fr.buf = make([]byte, n)
	}
	return fr.buf[:n]
}

// shrink drops scratch that outgrew the retention cap; any payload aliasing
// it stays valid (the reference moves to the caller), and the next frame
// starts from a small allocation.
func (fr *Reader) shrink() {
	if cap(fr.buf) > scratchCap {
		fr.buf = nil
	}
}

// checkHeaderRead validates the combined length-prefix-plus-header read
// against the frame-length bounds a Writer keeps. Headers are fixed-size and
// always present, so both are fetched in one ReadFull; a frame-length
// problem is still diagnosed first — even on a truncated stream — as long as
// the four length bytes arrived.
func checkHeaderRead(hdr []byte, n int, err error, headerLen, maxLen int) error {
	if n >= 4 {
		frameLen := int(binary.BigEndian.Uint32(hdr[:4]))
		if frameLen > maxLen {
			return ErrFrameTooLarge
		}
		if frameLen < headerLen {
			return ErrShortFrame
		}
	}
	return err
}

// fill reads exactly len(b) bytes, mapping a mid-frame EOF to
// io.ErrUnexpectedEOF.
func (fr *Reader) fill(b []byte) error {
	if _, err := io.ReadFull(fr.r, b); err != nil {
		if errors.Is(err, io.EOF) {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// ReadRequestHeader reads one request frame's envelope — op, seq, off, n —
// and returns it along with the payload length still on the stream. A clean
// EOF at a frame boundary returns io.EOF.
func (fr *Reader) ReadRequestHeader() (Request, int, error) {
	if err := fr.DiscardPayload(); err != nil {
		return Request{}, 0, err
	}
	fr.shrink()
	hdr := fr.scratch(4 + reqHeaderLen)
	n, err := io.ReadFull(fr.r, hdr)
	if err := checkHeaderRead(hdr, n, err, reqHeaderLen, reqHeaderLen+MaxPayload); err != nil {
		return Request{}, 0, err
	}
	frameLen := int(binary.BigEndian.Uint32(hdr[:4]))
	r := Request{
		Op:  Op(hdr[4]),
		Seq: binary.BigEndian.Uint32(hdr[5:9]),
		Off: int64(binary.BigEndian.Uint64(hdr[9:17])),
		N:   int64(binary.BigEndian.Uint64(hdr[17:25])),
	}
	if !r.Op.Valid() {
		return Request{}, 0, ErrBadOp
	}
	fr.pending = frameLen - reqHeaderLen
	return r, fr.pending, nil
}

// ReadResponseHeader reads one response frame's envelope — status, seq, n,
// msg — and returns it along with the payload length still on the stream.
func (fr *Reader) ReadResponseHeader() (Response, int, error) {
	if err := fr.DiscardPayload(); err != nil {
		return Response{}, 0, err
	}
	fr.shrink()
	hdr := fr.scratch(4 + rspHeaderLen)
	n, err := io.ReadFull(fr.r, hdr)
	if err := checkHeaderRead(hdr, n, err, rspHeaderLen, maxFrame); err != nil {
		return Response{}, 0, err
	}
	frameLen := int(binary.BigEndian.Uint32(hdr[:4]))
	r := Response{
		Status: Status(hdr[4]),
		Seq:    binary.BigEndian.Uint32(hdr[5:9]),
		N:      int64(binary.BigEndian.Uint64(hdr[9:17])),
	}
	if !r.Status.Valid() {
		return Response{}, 0, ErrBadStatus
	}
	msgLen := int(binary.BigEndian.Uint32(hdr[17:21]))
	if msgLen < 0 || rspHeaderLen+msgLen > frameLen {
		return Response{}, 0, ErrShortFrame
	}
	if msgLen > MaxPayload || frameLen-rspHeaderLen-msgLen > MaxPayload {
		return Response{}, 0, ErrFrameTooLarge
	}
	if msgLen > 0 {
		m := fr.scratch(msgLen)
		if err := fr.fill(m); err != nil {
			return Response{}, 0, err
		}
		r.Msg = string(m)
	}
	fr.pending = frameLen - rspHeaderLen - msgLen
	return r, fr.pending, nil
}

// ReadPayload fills dst with the next len(dst) payload bytes of the current
// frame. len(dst) must not exceed the pending payload length reported by the
// preceding header read.
func (fr *Reader) ReadPayload(dst []byte) error {
	if len(dst) > fr.pending {
		return ErrShortFrame
	}
	if err := fr.fill(dst); err != nil {
		return err
	}
	fr.pending -= len(dst)
	return nil
}

// Discarder is implemented by sources that can drop pending bytes in place —
// bufio.Reader and a shared-memory lane. DiscardPayload prefers it so a
// skipped payload advances a cursor instead of being copied through scratch.
type Discarder interface {
	Discard(n int) (int, error)
}

// DiscardPayload drains whatever remains of the current frame's payload, so
// the next header read starts at a frame boundary.
func (fr *Reader) DiscardPayload() error {
	if d, ok := fr.r.(Discarder); ok {
		for fr.pending > 0 {
			n, err := d.Discard(fr.pending)
			fr.pending -= n
			if err != nil {
				if errors.Is(err, io.EOF) {
					return io.ErrUnexpectedEOF
				}
				return err
			}
		}
		return nil
	}
	for fr.pending > 0 {
		chunk := fr.pending
		if chunk > scratchCap {
			chunk = scratchCap
		}
		if err := fr.fill(fr.scratch(chunk)); err != nil {
			return err
		}
		fr.pending -= chunk
	}
	return nil
}

// ReadRequest reads and decodes one request frame. The returned Request's
// Data aliases an internal scratch and is only valid until the next read.
func (fr *Reader) ReadRequest() (Request, error) {
	req, n, err := fr.ReadRequestHeader()
	if err != nil {
		return Request{}, err
	}
	if n > 0 {
		data := fr.scratch(n)
		if err := fr.ReadPayload(data); err != nil {
			return Request{}, err
		}
		req.Data = data
	}
	return req, nil
}

// ReadResponse reads and decodes one response frame. The returned Response's
// Data aliases an internal scratch and is only valid until the next read.
func (fr *Reader) ReadResponse() (Response, error) {
	resp, n, err := fr.ReadResponseHeader()
	if err != nil {
		return Response{}, err
	}
	if n > 0 {
		data := fr.scratch(n)
		if err := fr.ReadPayload(data); err != nil {
			return Response{}, err
		}
		resp.Data = data
	}
	return resp, nil
}
