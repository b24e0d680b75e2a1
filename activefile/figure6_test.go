package activefile_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"repro/activefile"
)

// TestFigure6Shape checks the qualitative shape of the paper's Figure 6(c),
// the in-memory cache path (§6): a read costs more under Process-plus-control
// than under Thread, and more under Thread than under Direct; Direct stays
// near the cost of reading the same bytes with no sentinel at all; and a
// Process-plus-control read costs more than a write, whose payload is posted
// without waiting for the sentinel.
//
// Each series is the median of several batches of 128-byte operations at
// random offsets. The batches of all series are interleaved, so a slow
// stretch of the host lands on every series alike.
func TestFigure6Shape(t *testing.T) {
	const (
		block   = 128
		batch   = 64
		batches = 7
		size    = 64 << 10
	)
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	path := filepath.Join(t.TempDir(), "fig6.af")
	if err := activefile.Create(path, activefile.Definition{
		Program: activefile.ProgramSpec{Name: "passthrough"},
		Cache:   activefile.CacheMemory,
		// The paper's strategies have no read-ahead; a window filled behind
		// the timed reads would hide the per-read cost being compared.
		Params: map[string]string{"readahead": "false"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(activefile.DataPath(path), data, 0o644); err != nil {
		t.Fatal(err)
	}
	offs := make([]int64, batch)
	rng := rand.New(rand.NewSource(2))
	for i := range offs {
		offs[i] = rng.Int63n(size - block)
	}

	open := func(s activefile.Strategy) *activefile.Handle {
		h, err := activefile.OpenActive(path, activefile.WithStrategy(s))
		if err != nil {
			t.Fatalf("open %v: %v", s, err)
		}
		t.Cleanup(func() { h.Close() })
		return h
	}
	procctl := open(activefile.StrategyProcessControl)
	thread := open(activefile.StrategyThread)
	direct := open(activefile.StrategyDirect)
	baseline := bytes.NewReader(data)

	type series struct {
		name  string
		op    func(buf []byte, off int64) (int, error)
		after func() error // untimed, once per batch
		times []float64    // µs per operation, one per batch
	}
	all := []*series{
		{name: "baseline", op: baseline.ReadAt},
		{name: "direct", op: direct.ReadAt},
		{name: "thread", op: thread.ReadAt},
		{name: "procctl", op: procctl.ReadAt},
		// Sync settles the posted writes outside the timed batch, so their
		// cost cannot spill into the batch that follows.
		{name: "procctl write", op: procctl.WriteAt, after: procctl.Sync},
	}
	buf := make([]byte, block)
	for b := 0; b < batches; b++ {
		for _, s := range all {
			start := time.Now()
			for _, off := range offs {
				if _, err := s.op(buf, off); err != nil {
					t.Fatalf("%s at %d: %v", s.name, off, err)
				}
			}
			s.times = append(s.times, float64(time.Since(start).Nanoseconds())/batch/1e3)
			if s.after != nil {
				if err := s.after(); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
		}
	}
	med := make(map[string]float64)
	for _, s := range all {
		sort.Float64s(s.times)
		med[s.name] = s.times[len(s.times)/2]
	}
	t.Logf("median µs/op over %d batches of %d: %v", batches, batch, med)

	if !(med["procctl"] > med["thread"] && med["thread"] > med["direct"]) {
		t.Errorf("read ordering violated: procctl=%.2f thread=%.2f direct=%.2f",
			med["procctl"], med["thread"], med["direct"])
	}
	if med["direct"] > 20*med["baseline"]+5 {
		t.Errorf("direct %.2fµs far above baseline %.2fµs", med["direct"], med["baseline"])
	}
	if !(med["procctl"] > med["procctl write"]) {
		t.Errorf("procctl read %.2fµs not above procctl write %.2fµs",
			med["procctl"], med["procctl write"])
	}
}
