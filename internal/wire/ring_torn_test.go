package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/shm"
)

// laneReader reassembles one lane's records from an shm queue into the byte
// stream a session reads, the way the lane demultiplexers do; the lane's
// in-band end-of-stream (or the queue's close) ends it with io.EOF.
type laneReader struct {
	q   *shm.MPSCQueue
	buf []byte
	eos bool
}

func (r *laneReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if r.eos {
			return 0, io.EOF
		}
		if err := r.q.Drain(func(_ uint16, kind shm.RecordKind, b []byte) {
			if kind == shm.RecordEOS {
				r.eos = true
			}
			r.buf = append(r.buf, b...)
		}); err != nil {
			return 0, err
		}
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// TestRingStreamTornBoundaries is the shared-memory counterpart of
// TestBatchedStreamTornBoundaries: a batched frame stream pushed through a
// real shm lane and cut off at an arbitrary byte — the producer ending the
// lane mid-stream, which is what the session side sees when a sentinel dies
// or its segment is torn down — must yield every complete frame intact and
// then fail with the same terminal shapes as a torn pipe: io.EOF on a frame
// boundary, io.ErrUnexpectedEOF inside a frame. The mux poisoning discipline
// keys on those two shapes, so this is what makes crash handling
// carrier-agnostic. Frames are consumed through both payload paths — copied
// out with ReadPayload and skipped with DiscardPayload.
func TestRingStreamTornBoundaries(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm lanes unsupported on this platform")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Batch 3..10 request frames with payload sizes straddling the
		// by-value/by-reference threshold and the ring capacity, so cuts land
		// in both splice paths and streams wrap the ring several times.
		nFrames := 3 + rng.Intn(8)
		reqs := make([]Request, nFrames)
		var stream bytes.Buffer
		bw := NewBatchWriter(&stream, nil)
		var ends []int
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

		cuts := append([]int{0, len(full)}, ends...)
		for i := 0; i < 6; i++ {
			cuts = append(cuts, rng.Intn(len(full)+1))
		}
		for _, cut := range cuts {
			seg, err := shm.NewMPSC(1, 4096, 4096)
			if err != nil {
				t.Fatalf("shm.NewMPSC: %v", err)
			}
			q := seg.Cmd()
			// The producer: ship the stream's first cut bytes, then end the
			// lane — the crash point.
			go func(prefix []byte) {
				q.Producer(0, shm.RecordFrame).Write(prefix)
				q.SendEOS(0)
			}(full[:cut])

			wantComplete := 0
			for _, end := range ends {
				if end <= cut {
					wantComplete++
				}
			}
			r := NewReader(&laneReader{q: q})
			var decoded int
			for {
				var req Request
				var plen int
				req, plen, err = r.ReadRequestHeader()
				if err != nil {
					break
				}
				if decoded >= len(reqs) {
					t.Fatalf("cut %d: decoded more frames than were written", cut)
				}
				want := reqs[decoded]
				if req.Op != want.Op || req.Seq != want.Seq || req.Off != want.Off || plen != len(want.Data) {
					t.Fatalf("cut %d: frame %d header decoded torn/corrupt", cut, decoded)
				}
				if rng.Intn(2) == 0 {
					if err = r.DiscardPayload(); err != nil {
						break
					}
				} else {
					payload := make([]byte, plen)
					if err = r.ReadPayload(payload); err != nil {
						break
					}
					if !bytes.Equal(payload, want.Data) {
						t.Fatalf("cut %d: frame %d payload corrupt off the lane", cut, decoded)
					}
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
			seg.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
