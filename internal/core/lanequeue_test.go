package core

import "testing"

// TestByteQueueLaggingReaderStaysBounded: a reader that stays one 64 KiB
// frame behind the writer — the lane demux running ahead of a session — must
// not grow the buffer without bound. The consumed prefix is compacted away,
// so the buffer stays a small multiple of the bytes actually left unread.
func TestByteQueueLaggingReaderStaysBounded(t *testing.T) {
	const frame = 64 << 10
	q := newByteQueue()
	payload := make([]byte, frame)
	got := make([]byte, frame)
	q.write(payload) // the reader starts one frame behind
	maxUnread := 0
	for round := 0; round < 200; round++ {
		payload[0] = byte(round)
		q.write(payload)
		maxUnread = max(maxUnread, len(q.buf)-q.r)
		if n, err := q.Read(got); err != nil || n != frame {
			t.Fatalf("round %d: Read = %d, %v", round, n, err)
		}
		if round > 0 && got[0] != byte(round-1) {
			t.Fatalf("round %d: read frame %d, want %d", round, got[0], round-1)
		}
		if c := cap(q.buf); c > 4*maxUnread {
			t.Fatalf("round %d: buffer cap %d KiB for at most %d KiB unread", round, c>>10, maxUnread>>10)
		}
	}
}
