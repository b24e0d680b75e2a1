package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/shm"
)

// Warm lane segments (param "pool"): a segment whose last session closes
// stays booted while its file has fewer than pool idle segments, so the next
// open claims a lane on it instead of spawning a sentinel.

// waitIdle polls until path has want warm segments. A released lane becomes
// claimable again only once the sentinel's reply-EOS has quiesced it.
func waitIdle(t *testing.T, path string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for IdleSentinels(path) != want {
		if time.Now().After(deadline) {
			t.Fatalf("IdleSentinels = %d, want %d", IdleSentinels(path), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// sentinelPid reports the pid of the sentinel serving tr, on either carrier.
func sentinelPid(tr *procCtlTransport) int {
	return sentinelOf(tr).cmd.Process.Pid
}

// TestLanePoolReusesSentinel: pool=1 alone puts the file on the lane plane;
// closing its only session keeps the segment booted, and the next open is
// served by the same sentinel.
func TestLanePoolReusesSentinel(t *testing.T) {
	requireShm(t)
	path, m := newLaneManifest(t, 0, map[string]string{"pool": "1"})
	o := mustOptions(t, m)
	first, err := newProcCtlTransport(path, m, o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	pid := sentinelPid(first)
	if err := first.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitIdle(t, path, 1)

	second, err := newProcCtlTransport(path, m, o)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer second.close()
	if got := sentinelPid(second); got != pid {
		t.Fatalf("reopen served by sentinel %d, want the kept %d", got, pid)
	}
	if n := IdleSentinels(path); n != 0 {
		t.Fatalf("IdleSentinels with the kept segment claimed = %d, want 0", n)
	}
	if _, err := second.writeAt([]byte("warm"), 0); err != nil {
		t.Fatalf("writeAt: %v", err)
	}
	if size, err := second.size(); err != nil || size != 4 {
		t.Fatalf("size = %d, %v", size, err)
	}
}

// TestLanePoolKeepsN closes N+2 sessions, each on its own segment, at once:
// exactly N segments must stay mapped, all of them warm.
func TestLanePoolKeepsN(t *testing.T) {
	requireShm(t)
	const keep = 2
	base := shm.SnapshotFDs()
	path, m := newLaneManifest(t, 1, map[string]string{"pool": fmt.Sprint(keep)})
	trs := make([]*procCtlTransport, keep+2)
	for i := range trs {
		trs[i] = openLane(t, path, m)
	}
	if got := shm.SnapshotFDs().Segments - base.Segments; got != keep+2 {
		t.Fatalf("%d sessions mapped %d segments", keep+2, got)
	}
	var wg sync.WaitGroup
	for _, tr := range trs {
		wg.Add(1)
		go func(tr *procCtlTransport) {
			defer wg.Done()
			if err := tr.close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(tr)
	}
	wg.Wait()
	if got := shm.SnapshotFDs().Segments - base.Segments; got != keep {
		t.Fatalf("segments after closing every session = %d, want pool=%d", got, keep)
	}
	waitIdle(t, path, keep)
}

// TestLanePoolIdleDeath kills a kept sentinel while no session holds it: the
// segment stops counting as warm, and the next open spawns a fresh one.
func TestLanePoolIdleDeath(t *testing.T) {
	requireShm(t)
	path, m := newLaneManifest(t, 1, map[string]string{"pool": "1"})
	tr := openLane(t, path, m)
	kept := laneOf(tr).ls
	if err := tr.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitIdle(t, path, 1)
	if err := kept.proc.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill kept sentinel: %v", err)
	}
	waitIdle(t, path, 0)

	fresh := openLane(t, path, m)
	defer fresh.close()
	if laneOf(fresh).ls == kept {
		t.Fatal("open after the idle death landed on the dead segment")
	}
	if _, err := fresh.writeAt([]byte("x"), 0); err != nil {
		t.Fatalf("writeAt: %v", err)
	}
	if err := fresh.sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

// TestLanePoolDrainSparesHeldSession: DrainSentinelPool retires the warm
// segment and reaps its sentinel, but not a segment a session still holds.
func TestLanePoolDrainSparesHeldSession(t *testing.T) {
	requireShm(t)
	path, m := newLaneManifest(t, 1, map[string]string{"pool": "2"})
	held, idle := openLane(t, path, m), openLane(t, path, m)
	idleMon := sentinelOf(idle)
	if err := idle.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitIdle(t, path, 1)

	DrainSentinelPool()
	if n := IdleSentinels(path); n != 0 {
		t.Fatalf("IdleSentinels after drain = %d, want 0", n)
	}
	if _, dead := idleMon.exited(); !dead {
		t.Fatal("drain left the warm sentinel running")
	}
	if _, dead := held.conn.exited(); dead {
		t.Fatal("drain reaped the sentinel of a held session")
	}
	if _, err := held.size(); err != nil {
		t.Fatalf("held session after drain: %v", err)
	}
	if err := held.close(); err != nil {
		t.Fatalf("close held: %v", err)
	}
}
