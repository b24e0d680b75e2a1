package ipc

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// The exported shape of Rendezvous is what callers outside this package
// build on; these assignments stop compiling if it changes.
var (
	_ func() *Rendezvous[int, string]                           = NewRendezvous[int, string]
	_ func(*Rendezvous[int, string], int) (string, error)       = (*Rendezvous[int, string]).Call
	_ func(*Rendezvous[int, string]) (int, func(string), error) = (*Rendezvous[int, string]).Next
	_ func(*Rendezvous[int, string]) error                      = (*Rendezvous[int, string]).Close
)

// TestRendezvousCloseWaitsForTakenCall: a Close that lands while a server
// holds a call does not cut that call short. Call returns the server's reply,
// once, however late it comes — the guarantee that lets a server write into
// memory the request points at until it replies.
func TestRendezvousCloseWaitsForTakenCall(t *testing.T) {
	r := NewRendezvous[int, int]()
	type result struct {
		v   int
		err error
	}
	got := make(chan result, 2)
	go func() {
		v, err := r.Call(21)
		got <- result{v, err}
	}()
	req, reply, err := r.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	r.Close()
	select {
	case res := <-got:
		t.Fatalf("Call returned (%d, %v) before its server replied", res.v, res.err)
	case <-time.After(20 * time.Millisecond):
	}
	reply(req * 2)
	if res := <-got; res.v != 42 || res.err != nil {
		t.Errorf("Call = (%d, %v), want (42, nil)", res.v, res.err)
	}
	if _, _, err := r.Next(); !errors.Is(err, ErrRendezvousClosed) {
		t.Errorf("Next after Close = %v, want ErrRendezvousClosed", err)
	}
	if _, err := r.Call(1); !errors.Is(err, ErrRendezvousClosed) {
		t.Errorf("Call after Close = %v, want ErrRendezvousClosed", err)
	}
}

// TestRendezvousCloseReleasesFullQueue: with no server, Close releases
// every caller — the ones queued and the ones waiting for room in the full
// queue — with ErrRendezvousClosed.
func TestRendezvousCloseReleasesFullQueue(t *testing.T) {
	r := NewRendezvous[int, int]()
	const callers = 2 * rendezvousQueue
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			_, err := r.Call(i)
			errs <- err
		}(i)
	}
	for len(r.calls) < rendezvousQueue {
		time.Sleep(time.Millisecond) // until the queue is full
	}
	r.Close()
	for i := 0; i < callers; i++ {
		if err := <-errs; !errors.Is(err, ErrRendezvousClosed) {
			t.Fatalf("Call err = %v, want ErrRendezvousClosed", err)
		}
	}
}

// TestRendezvousCloseRacesCalls: callers, servers and Close all at once.
// Every Call gets either its server's reply or ErrRendezvousClosed, and
// every call a server took was answered to its own caller.
func TestRendezvousCloseRacesCalls(t *testing.T) {
	for round := 0; round < 20; round++ {
		r := NewRendezvous[int, int]()
		var servers, callers sync.WaitGroup
		var mu sync.Mutex
		served := 0
		for i := 0; i < 4; i++ {
			servers.Add(1)
			go func() {
				defer servers.Done()
				for {
					req, reply, err := r.Next()
					if err != nil {
						return
					}
					mu.Lock()
					served++
					mu.Unlock()
					reply(-req)
				}
			}()
		}
		answered := make(chan int, 8*50)
		for i := 0; i < 8; i++ {
			callers.Add(1)
			go func(i int) {
				defer callers.Done()
				for j := 1; j <= 50; j++ {
					v := i*1000 + j
					got, err := r.Call(v)
					switch {
					case errors.Is(err, ErrRendezvousClosed):
					case err != nil || got != -v:
						t.Errorf("Call(%d) = (%d, %v)", v, got, err)
					default:
						answered <- v
					}
				}
			}(i)
		}
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
		}
		r.Close()
		callers.Wait()
		servers.Wait()
		if len(answered) != served {
			t.Fatalf("round %d: servers replied to %d calls, callers received %d", round, served, len(answered))
		}
	}
}
