package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// Robustness: decoders must never panic on arbitrary input — a corrupt or
// malicious peer can put any bytes on a pipe.

// The fuzz targets hold a Reader to three rules on whatever a peer writes:
// it never panics; a declared length never makes it allocate past
// MaxPayload, beyond copies of bytes the input really carries; and it
// accepts only frames a Writer could have produced, so re-encoding an
// accepted frame gives back its exact bytes. `go test` runs the seeds;
// `go test -fuzz FuzzReadRequest ./internal/wire` explores.

// fuzzAllocSlack covers the header scratch, the decoded value and runtime
// noise in a decode's allocation count.
const fuzzAllocSlack = 64 << 10

// allocatedBy reports the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAlloc fails t if decoding input cost more than the allocation rule
// allows.
func checkAlloc(t *testing.T, input []byte, alloc uint64) {
	t.Helper()
	if limit := uint64(MaxPayload + len(input) + fuzzAllocSlack); alloc > limit {
		t.Fatalf("decoding %d input bytes allocated %d, over %d", len(input), alloc, limit)
	}
}

// checkReencode fails t unless an accepted frame re-encoded (again, err) to
// the bytes it was read from.
func checkReencode(t *testing.T, input, again []byte, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("accepted frame does not re-encode: %v", err)
	}
	if len(again) > len(input) || !bytes.Equal(again, input[:len(again)]) {
		t.Fatalf("re-encoded frame %x differs from input %x", again, input)
	}
}

func FuzzReadRequest(f *testing.F) {
	for op := OpOpen; op.Valid(); op++ {
		frame, err := AppendRequest(nil, &Request{Op: op, Seq: uint32(op), Off: 4096, N: 7, Data: []byte("payload")})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var req Request
		var err error
		checkAlloc(t, input, allocatedBy(func() { req, err = NewReader(bytes.NewReader(input)).ReadRequest() }))
		if err == nil {
			again, err := AppendRequest(nil, &req)
			checkReencode(t, input, again, err)
		}
	})
}

func FuzzReadResponse(f *testing.F) {
	for op := OpOpen; op.Valid(); op++ {
		// The answer to each op, cycling through every status.
		resp := Response{Status: StatusOK + Status(op)%Status(len(statusNames)), Seq: uint32(op), N: 7, Data: []byte("payload")}
		if resp.Status != StatusOK {
			resp.Msg = op.String() + ": " + resp.Status.String()
		}
		frame, err := AppendResponse(nil, &resp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		var resp Response
		var err error
		checkAlloc(t, input, allocatedBy(func() { resp, err = NewReader(bytes.NewReader(input)).ReadResponse() }))
		if err == nil {
			again, err := AppendResponse(nil, &resp)
			checkReencode(t, input, again, err)
		}
	})
}

func TestDecodeRequestNeverPanics(t *testing.T) {
	f := func(frame []byte) bool {
		DecodeRequest(frame) // any outcome but panic is acceptable
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeResponseNeverPanics(t *testing.T) {
	f := func(frame []byte) bool {
		DecodeResponse(frame)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReaderNeverPanicsOnGarbageStream(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		garbage := make([]byte, int(n)%4096)
		rng.Read(garbage)
		r := NewReader(bytes.NewReader(garbage))
		for i := 0; i < 8; i++ {
			if _, err := r.ReadRequest(); err != nil {
				break
			}
		}
		r2 := NewReader(bytes.NewReader(garbage))
		for i := 0; i < 8; i++ {
			if _, err := r2.ReadResponse(); err != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestBatchedStreamTornBoundaries covers the decode side of frame batching:
// a BatchWriter-built multi-frame stream truncated at an arbitrary byte —
// mid-batch, mid-frame, mid-payload — must yield every complete frame intact
// and then fail cleanly (io.EOF on a frame boundary, io.ErrUnexpectedEOF
// inside one), never panic or deliver a torn frame as data.
func TestBatchedStreamTornBoundaries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Batch 3..10 request frames with payload sizes straddling the
		// by-value/by-reference threshold, so cuts land in both splice paths.
		nFrames := 3 + rng.Intn(8)
		reqs := make([]Request, nFrames)
		var stream bytes.Buffer
		bw := NewBatchWriter(&stream, nil)
		var ends []int // stream offset after each frame
		for i := range reqs {
			size := rng.Intn(2 * inlinePayload)
			payload := make([]byte, size)
			rng.Read(payload)
			reqs[i] = Request{
				Op:   OpWrite,
				Seq:  uint32(i + 1),
				Off:  rng.Int63(),
				N:    int64(size),
				Data: payload,
			}
			if err := bw.WriteRequest(&reqs[i]); err != nil {
				t.Fatalf("WriteRequest: %v", err)
			}
			ends = append(ends, stream.Len())
		}
		full := stream.Bytes()

		// Sample cut points, always including every frame boundary.
		cuts := append([]int{0, len(full)}, ends...)
		for i := 0; i < 16; i++ {
			cuts = append(cuts, rng.Intn(len(full)+1))
		}
		for _, cut := range cuts {
			r := NewReader(bytes.NewReader(full[:cut]))
			wantComplete := 0
			for _, end := range ends {
				if end <= cut {
					wantComplete++
				}
			}
			var decoded int
			var err error
			for {
				var req Request
				req, err = r.ReadRequest()
				if err != nil {
					break
				}
				if decoded >= len(reqs) {
					t.Fatalf("cut %d: decoded more frames than were written", cut)
				}
				want := reqs[decoded]
				if req.Op != want.Op || req.Seq != want.Seq || req.Off != want.Off || !bytes.Equal(req.Data, want.Data) {
					t.Fatalf("cut %d: frame %d decoded torn/corrupt", cut, decoded)
				}
				decoded++
			}
			if decoded != wantComplete {
				t.Fatalf("cut %d: decoded %d complete frames, want %d (err %v)", cut, decoded, wantComplete, err)
			}
			onBoundary := cut == 0 || wantComplete > 0 && ends[wantComplete-1] == cut
			if onBoundary {
				if !errors.Is(err, io.EOF) {
					t.Fatalf("cut %d on frame boundary: err = %v, want io.EOF", cut, err)
				}
			} else if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("cut %d mid-frame: err = %v, want io.ErrUnexpectedEOF", cut, err)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValidPrefixMutations(t *testing.T) {
	// Start from a valid encoding and corrupt single bytes: decoding must
	// either fail cleanly or produce a structurally valid request.
	base, err := AppendRequest(nil, &Request{Op: OpWrite, Seq: 7, Off: 9, N: 5, Data: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	body := base[4:] // strip the length prefix; DecodeRequest takes the body
	for i := range body {
		for _, delta := range []byte{1, 0x80, 0xff} {
			mutated := append([]byte(nil), body...)
			mutated[i] ^= delta
			req, err := DecodeRequest(mutated)
			if err == nil && !req.Op.Valid() {
				t.Fatalf("mutation at %d decoded invalid op %v", i, req.Op)
			}
		}
	}
}
