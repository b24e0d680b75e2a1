package core_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/vfs"
)

// TestThreadReadWriteAllocs pins the in-process strategies' per-operation
// allocations at zero: a 128 B ReadAt or WriteAt through a thread or direct
// handle over a memory-cached file allocates nothing. On the thread
// strategy that holds only while calls travel in pooled rendezvous slots
// and the worker reads straight into the caller's buffer (wire.GetBuf's
// release closure alone would cost one allocation per read); on both it
// needs the dispatcher's handler lock to build no closure. Under -race the
// operations still run, for the race detector, but the counts are only
// logged.
func TestThreadReadWriteAllocs(t *testing.T) {
	for _, strategy := range []core.Strategy{core.StrategyThread, core.StrategyDirect} {
		t.Run(strategy.String(), func(t *testing.T) {
			path := createAF(t, vfs.Manifest{
				Program: vfs.ProgramSpec{Name: "passthrough"},
				Cache:   "memory",
				Params:  map[string]string{"readahead": "false"},
			})
			data := bytes.Repeat([]byte("0123456789abcdef"), 1024)
			seedData(t, path, data)
			h, err := core.Open(path, core.Options{Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			defer h.Close()

			buf := make([]byte, 128)
			off := int64(0)
			read := testing.AllocsPerRun(1000, func() {
				if n, err := h.ReadAt(buf, off); n != len(buf) || err != nil || !bytes.Equal(buf, data[off:off+128]) {
					t.Fatalf("ReadAt(%d) = (%d, %v), %q", off, n, err, buf)
				}
				off = (off + 4096) % int64(len(data))
			})
			write := testing.AllocsPerRun(1000, func() {
				if n, err := h.WriteAt(buf, off); n != len(buf) || err != nil {
					t.Fatalf("WriteAt(%d) = (%d, %v)", off, n, err)
				}
				off = (off + 4096) % int64(len(data))
			})
			switch {
			case raceEnabled:
				t.Logf("-race (pools drop entries): ReadAt allocates %v times, WriteAt %v times", read, write)
			case read != 0 || write != 0:
				t.Errorf("128 B ReadAt allocates %v times, WriteAt %v times; want 0 and 0", read, write)
			}
		})
	}
}
