//go:build linux

package shm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
	"unsafe"
)

// drainUntilDone pumps q.Drain until it returns an error, recovering a panic
// into the returned error, and fails the test if Drain has not finished
// within the deadline — the hang a zero-length pad used to cause.
func drainUntilDone(t testing.TB, q *MPSCQueue, fn func(lane uint16, kind RecordKind, payload []byte)) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("Drain panicked: %v", r)
			}
		}()
		for {
			if err := q.Drain(fn); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not return")
		return nil
	}
}

// TestDrainRejectsCorruptRecords stores each malformed header and cursor
// shape a hostile peer could write straight into the command queue: Drain
// must close the queue and return ErrCorrupt, never panic, spin forever or
// deliver the record.
func TestDrainRejectsCorruptRecords(t *testing.T) {
	const lanes = 4
	pad := func(n uint64) uint64 { return recCommit | uint64(recordPad)<<recKindShift | n }
	cases := []struct {
		name       string
		head, tail uint64
		word       uint64
	}{
		{"unknown kind", 16, 0, recCommit | 5<<recKindShift | 8},
		{"lane beyond segment", 16, 0, recHeader(RecordFrame, lanes, 8)},
		{"lane beyond table", 16, 0, recHeader(RecordData, 300, 8)},
		{"payload of 2^32-1", minRingBytes, 0, recHeader(RecordFrame, 0, 1<<32-1)},
		{"payload over record bound", minRingBytes, 0, recHeader(RecordFrame, 0, minRingBytes/4+8)},
		{"span past claimed bytes", 16, 0, recHeader(RecordFrame, 0, 64)},
		{"zero-length pad", 16, 0, pad(0)},
		{"misaligned pad", 16, 0, pad(12)},
		{"pad past buffer end", minRingBytes, 0, pad(2 * minRingBytes)},
		{"misaligned tail", 20, 4, recHeader(RecordFrame, 0, 0)},
		{"head behind tail", 8, 16, recHeader(RecordFrame, 0, 0)},
		{"head past capacity", 2 * minRingBytes, 0, recHeader(RecordFrame, 0, 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg, err := NewMPSC(lanes, minRingBytes, minRingBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer seg.Close()
			q := seg.Cmd()
			q.hdr.head.Store(tc.head)
			q.hdr.tail.Store(tc.tail)
			q.storeHeader(tc.tail&q.mask&^(recAlign-1), tc.word)

			err = drainUntilDone(t, q, func(lane uint16, kind RecordKind, p []byte) {
				t.Errorf("corrupt record delivered: lane %d kind %d, %d bytes", lane, kind, len(p))
			})
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Drain = %v, want ErrCorrupt", err)
			}
			if _, err := q.Producer(0, RecordFrame).Write([]byte("x")); !errors.Is(err, ErrClosed) {
				t.Fatalf("write after corruption = %v, want ErrClosed", err)
			}
		})
	}
}

// queueImage is one fuzz input: the command queue's data region and cursors.
type queueImage struct {
	mem        []byte
	head, tail uint64
}

// realQueueImages records the queue state real producers leave behind: one
// run of records of every kind across lanes, and one whose last record wraps
// behind a pad after a drained first lap.
func realQueueImages(f *testing.F) []queueImage {
	seg, err := NewMPSC(4, minRingBytes, minRingBytes)
	if err != nil {
		f.Fatal(err)
	}
	defer seg.Close()
	q := seg.Cmd()
	snap := func() queueImage {
		return queueImage{append([]byte(nil), q.data...), q.hdr.head.Load(), q.hdr.tail.Load()}
	}
	for lane := uint16(0); lane < 4; lane++ {
		frames, data := q.LaneProducers(lane)
		frames.Write([]byte(fmt.Sprintf("frame on lane %d", lane)))
		data.Write(make([]byte, 100*int(lane)+1))
	}
	q.SendEOS(2)
	images := []queueImage{snap()}
	// Two laps of two maximal records each: the second lap's last record no
	// longer fits before the buffer's end and wraps behind a pad.
	big := make([]byte, q.maxRecordPayload())
	for lap := 0; lap < 2; lap++ {
		for q.hdr.head.Load() != q.hdr.tail.Load() {
			q.Drain(func(uint16, RecordKind, []byte) {})
		}
		q.Producer(1, RecordData).Write(big)
		q.Producer(1, RecordData).Write(big)
	}
	return append(images, snap())
}

// FuzzMPSCDrain writes arbitrary bytes and cursors into a fresh command
// queue and drains it. Drain must terminate without panicking, and every
// record it delivers must carry a known kind, a lane of the segment, and a
// payload inside the queue's buffer.
func FuzzMPSCDrain(f *testing.F) {
	for _, im := range realQueueImages(f) {
		f.Add(im.mem, im.head, im.tail)
	}
	word := func(w uint64) []byte { return binary.NativeEndian.AppendUint64(nil, w) }
	f.Add(word(recHeader(RecordFrame, 0, 1<<32-1)), uint64(minRingBytes), uint64(0))
	f.Add(word(recCommit|uint64(recordPad)<<recKindShift), uint64(16), uint64(0))
	f.Add(word(recHeader(RecordFrame, 9, 8)), uint64(16), uint64(0))

	f.Fuzz(func(t *testing.T, mem []byte, head, tail uint64) {
		seg, err := NewMPSC(4, minRingBytes, minRingBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		q := seg.Cmd()
		copy(q.data, mem)
		q.hdr.head.Store(head)
		q.hdr.tail.Store(tail)
		q.close() // Drain then ends at the last committed record instead of parking
		base := uintptr(unsafe.Pointer(unsafe.SliceData(q.data)))
		err = drainUntilDone(t, q, func(lane uint16, kind RecordKind, p []byte) {
			if kind > RecordEOS || int(lane) >= seg.Lanes() {
				t.Errorf("delivered kind %d lane %d from a %d-lane segment", kind, lane, seg.Lanes())
			}
			if len(p) > 0 {
				at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
				if at < base || at+uintptr(len(p)) > base+uintptr(len(q.data)) {
					t.Errorf("payload [%#x, +%d) outside the queue [%#x, +%d)", at, len(p), base, len(q.data))
				}
			}
		})
		if !errors.Is(err, io.EOF) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Drain = %v, want io.EOF or ErrCorrupt", err)
		}
	})
}
