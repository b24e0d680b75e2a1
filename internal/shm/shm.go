// Package shm implements the shared-memory data plane for the process
// strategies: an mmap'd lane segment carrying two multi-producer/single-
// consumer record queues — a command queue toward the serving sentinel and a
// reply queue back — with cache-line-padded head/tail cursors, an eventfd
// doorbell per wait direction, and adaptive spin-then-park waiting.
//
// A segment serves up to MaxLanes sessions. Every record is tagged with its
// session's lane and its kind: command/response frames, posted write
// payloads, or an in-band end-of-stream. The serving side demultiplexes the
// command queue by lane and the session side demultiplexes the reply queue,
// so each session still sees ordered byte streams and the existing wire
// framing, ipc.Mux correlation, BatchWriter group commit and the whole
// failure machinery run over them unchanged; only the bytes' carrier moves
// from kernel pipes to shared memory. A segment with one lane is one
// session's private carrier.
//
// Hot path: a producer CAS-claims a contiguous span on the shared head
// cursor, copies its payload, and publishes the record by storing its header
// word last; it rings the consumer's doorbell only when the consumer has
// actually parked. The consumer walks records in claim order, spinning
// briefly (yielding the CPU so a same-core peer can run) before parking. An
// idle queue therefore burns no CPU — both sides block in an eventfd read
// until the next doorbell.
//
// Doorbell coalescing: a group-committed flush (wire.BatchWriter) brackets
// its writes with BeginFlush/EndFlush, deferring the wake decision to the end
// of the batch — N records published together cost at most one doorbell, and
// none at all when the consumer is running. Both rung and suppressed
// doorbells are counted in the shared queue header, so either process can
// observe the full syscall economy of the segment.
//
// Memory ordering: cursors, record headers and park flags are sync/atomic
// values living in the shared mapping. Payload bytes are written before the
// header store that commits them and read only after loading it, so the
// release/acquire pairing of Go's (sequentially consistent) atomics carries
// the payload across the process boundary. The park/doorbell handshake is a
// Dekker-style store-then-check on both sides — the producer publishes then
// checks "consumer parked?", the consumer marks parked then re-checks "queue
// still empty?" — which sequential consistency makes lossless: at least one
// side always sees the other's store, so a wakeup cannot be lost. A deferred
// (coalesced) wake preserves the property because EndFlush re-runs the
// parked check after the final commit, and a producer that must wait for
// space first releases any deferred wake so the consumer it is waiting on
// cannot stay parked.
//
// Teardown: either side may close, which sets a shared closed flag and rings
// every doorbell. The consumer drains what was committed and then sees
// io.EOF; producers fail with ErrClosed. A SIGKILLed peer cannot set the
// flag, so the surviving side's supervisor (the parent's child monitor, the
// child's control-pipe watchdog) closes its view explicitly — the same prompt
// poisoning discipline the pipe transport gets from kernel EOF/EPIPE.
package shm

import "errors"

// Default queue capacities. The command queue carries request frames plus
// posted write payloads; the reply queue carries response frames including
// read payloads, so it gets the larger share. Payloads larger than a quarter
// of a queue are split into several records, with the consumer draining
// concurrently.
const (
	DefaultCmdBytes   = 256 << 10
	DefaultReplyBytes = 1 << 20
)

// MaxLanes bounds a segment's lane table; a lane is one session's slot on
// the shared segment.
const MaxLanes = 256

// ErrClosed reports a write to (or a wait on) a queue whose segment was
// closed by either side.
var ErrClosed = errors.New("shm: ring closed")

// ErrCorrupt reports a record queue whose cursors or record headers, written
// by the peer process, fail validation. The queue is closed: its stream can
// no longer be parsed.
var ErrCorrupt = errors.New("shm: corrupt record queue")

// ErrUnsupported reports that this platform cannot host the shared-memory
// transport; callers fall back to the pipe transport.
var ErrUnsupported = errors.New("shm: shared-memory transport unsupported on this platform")

// Stats is a point-in-time snapshot of one queue's wait behaviour, exposed so
// tests can pin the spin-then-park contract (a parked consumer must not spin)
// and benchmarks can report doorbell amortization. Parks and Spins are local
// to the calling process; Doorbells and Suppressed live in the shared queue
// header and therefore count both processes' wake decisions on this queue.
type Stats struct {
	Parks      uint64 // times this process gave up spinning and blocked on a doorbell
	Doorbells  uint64 // doorbell syscalls issued to wake a parked peer (both sides)
	Suppressed uint64 // wakes skipped: peer was running, or coalesced into a flush (both sides)
	Spins      uint64 // yield iterations this process spent in bounded spin waits
}
