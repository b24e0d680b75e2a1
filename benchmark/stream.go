package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
)

// The shape of one cycle of file operations. Every workload issues exactly
// this mix; only the stack underneath differs.
const (
	objectSize = 1 << 20 // bytes in the file every workload operates on

	smallIO    = 128       // bytes per scan, read and write operation
	batchOps   = 64        // operations per read or write batch
	scanOps    = 2048      // sequential reads per scan
	scanWindow = 256 << 10 // = scanOps * smallIO
	bulkIO     = 64 << 10  // bytes per bulk read
	bulkOps    = 16        // reads per bulk batch

	readBatches  = 8
	writeBatches = 2

	// streamCycles distinct cycles are generated per seed and then repeated.
	// 64 cycles hold 32768 random reads, far more than any cache in the
	// stack has blocks, so repetition never turns into a learnable pattern.
	streamCycles = 64

	cacheBlock  = 4096 // block size of the fleet client cache
	cacheBlocks = 64   // its capacity: a quarter of the object
)

// cycle is one pass over the operation mix: a scan, eight read batches, two
// write batches and a bulk batch, as offsets into the object.
type cycle struct {
	scan   int64
	reads  [readBatches][batchOps]int64
	writes [writeBatches][batchOps]int64
	bulk   [bulkOps]int64
}

// stream is everything a run derives from its seed: the file's initial
// contents, the bytes writes draw from, and the cycles of offsets. The
// program under test never sees the seed, only these inputs.
type stream struct {
	data    []byte // initial contents of the object
	payload []byte // write payloads are 128-byte windows of this
	cycles  []cycle
	churn   [256]int64 // offset of the first read after each churn open
}

// newStream generates the inputs for seed. With zipf set, read batches draw
// 4 KiB blocks from Zipf(1.1) — a hot set a quarter-sized cache can mostly
// hold — instead of uniformly; scans, writes and bulk reads are uniform
// either way.
func newStream(seed int64, zipf bool) *stream {
	r := rand.New(rand.NewSource(seed))
	s := &stream{
		data:    make([]byte, objectSize),
		payload: make([]byte, 64<<10),
		cycles:  make([]cycle, streamCycles),
	}
	r.Read(s.data)
	r.Read(s.payload)

	const blocks = objectSize / cacheBlock
	rank := r.Perm(blocks) // which block holds each popularity rank
	z := rand.NewZipf(r, 1.1, 1, blocks-1)
	for i := range s.cycles {
		c := &s.cycles[i]
		c.scan = r.Int63n(objectSize - scanWindow + 1)
		for b := range c.reads {
			for j := range c.reads[b] {
				if zipf {
					c.reads[b][j] = int64(rank[z.Uint64()])*cacheBlock + r.Int63n(cacheBlock-smallIO+1)
				} else {
					c.reads[b][j] = r.Int63n(objectSize - smallIO + 1)
				}
			}
		}
		for b := range c.writes {
			for j := range c.writes[b] {
				c.writes[b][j] = r.Int63n(objectSize - smallIO + 1)
			}
		}
		for j := range c.bulk {
			c.bulk[j] = r.Int63n(objectSize - bulkIO + 1)
		}
	}
	// Churn reads start past the read-ahead slack (16 blocks of 128 bytes):
	// a first read at offset 0 looks sequential and starts a background
	// fill, and Close racing that fill fails the close on the shm carrier
	// ("ring closed"). The benchmark needs workloads on which no operation
	// fails, so it does not provoke the race; README.md records it.
	for i := range s.churn {
		s.churn[i] = 4096 + r.Int63n(objectSize-smallIO-4096+1)
	}
	return s
}

// writePayload returns the bytes of the n-th write of a run. Successive
// writes to one offset differ, so a stale read cannot pass verification.
func (s *stream) writePayload(n int64) []byte {
	off := (n * 61) % int64(len(s.payload)-smallIO)
	return s.payload[off : off+smallIO]
}

// hash fingerprints the generated inputs; equal seeds must give equal hashes.
func (s *stream) hash() string {
	h := sha256.New()
	h.Write(s.data)
	h.Write(s.payload)
	var b [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for i := range s.cycles {
		c := &s.cycles[i]
		put(c.scan)
		for _, batch := range c.reads {
			for _, off := range batch {
				put(off)
			}
		}
		for _, batch := range c.writes {
			for _, off := range batch {
				put(off)
			}
		}
		for _, off := range c.bulk {
			put(off)
		}
	}
	for _, off := range s.churn {
		put(off)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
