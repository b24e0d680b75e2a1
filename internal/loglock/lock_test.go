package loglock

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// holdLogEnv names the log a helper process locks and holds.
const holdLogEnv = "LOGLOCK_TEST_HOLD"

func TestMain(m *testing.M) {
	if path := os.Getenv(holdLogEnv); path != "" {
		holdLog(path)
	}
	os.Exit(m.Run())
}

// holdLog is the helper process of TestKilledHolderReleasesLog: it takes
// the log's lock, says "held", and waits to be killed.
func holdLog(path string) {
	f, err := New(path).lock(os.O_CREATE|os.O_APPEND|os.O_WRONLY, syscall.LOCK_EX)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("held")
	time.Sleep(time.Hour)
	runtime.KeepAlive(f)
	os.Exit(0)
}

// TestKilledHolderReleasesLog kills a process holding the log's lock while
// an Append waits for it, and times how long the Append stays blocked.
func TestKilledHolderReleasesLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "held.log")
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), holdLogEnv+"="+path)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "held\n" {
		t.Fatalf("helper said %q, %v; want \"held\"", line, err)
	}

	done := make(chan error, 1)
	go func() { done <- New(path).Append([]byte("after")) }()
	select {
	case err := <-done:
		t.Fatalf("Append finished while another process held the lock: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	killed := time.Now()
	cmd.Process.Kill()
	cmd.Wait()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Append after the kill: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Append still blocked 2 s after the lock's holder was killed")
	}
	if d := time.Since(killed); d > 100*time.Millisecond {
		t.Errorf("Append finished %v after the holder was killed, want within 100ms", d)
	}
	recs, err := New(path).Records()
	if err != nil || len(recs) != 1 || string(recs[0]) != "after" {
		t.Errorf("Records = %q, %v", recs, err)
	}
}

// TestAppendRacesCompact appends numbered records from several managers
// while another compacts the log. Compaction keeps a tail of the log, so
// each writer's surviving records must be a contiguous run ending at its
// last one: an append that waited through a compaction must not land in
// the replaced log.
func TestAppendRacesCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.log")
	const (
		writers   = 4
		perWriter = 300
		keep      = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		m := New(path)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := m.Append([]byte(fmt.Sprintf("w%d %d", w, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	compacted := make(chan error, 1)
	go func() {
		m := New(path)
		for {
			select {
			case <-stop:
				compacted <- nil
				return
			default:
			}
			if err := m.Compact(keep); err != nil {
				compacted <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-compacted; err != nil {
		t.Fatalf("Compact: %v", err)
	}

	recs, err := New(path).Records()
	if err != nil {
		t.Fatal(err)
	}
	seen := make([][]int, writers)
	for _, r := range recs {
		var w, i int
		if _, err := fmt.Sscanf(string(r), "w%d %d", &w, &i); err != nil || w < 0 || w >= writers {
			t.Fatalf("malformed record %q", r)
		}
		seen[w] = append(seen[w], i)
	}
	for w, nums := range seen {
		for k, i := range nums {
			if want := perWriter - len(nums) + k; i != want {
				t.Fatalf("writer %d kept records %s, want a contiguous run ending at %d",
					w, strings.Trim(fmt.Sprint(nums), "[]"), perWriter-1)
			}
		}
	}
}
