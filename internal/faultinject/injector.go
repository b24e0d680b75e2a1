package faultinject

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Injector is the one implementation of seeded, probabilistic OPERATION-level
// fault and latency injection. The wire-level tools in this package break
// bytes; Injector breaks (or delays) whole operations, and is shared by
// everything that needs that: the errorfs backend wraps any other backend
// with one. Same seed, same fault schedule — a chaos run is reproducible.
type Injector struct {
	fault   error
	latency time.Duration

	mu   sync.Mutex
	rate float64
	rng  *rand.Rand

	injected atomic.Uint64
}

// NewInjector returns an injector failing each rolled operation with
// probability rate (clamped to [0,1]) returning fault (ErrInjected when
// nil), after sleeping latency (which also applies to operations that pass).
func NewInjector(rate float64, fault error, seed int64, latency time.Duration) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if fault == nil {
		fault = ErrInjected
	}
	return &Injector{
		fault:   fault,
		latency: latency,
		rate:    rate,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Injected reports how many operations have been failed so far.
func (i *Injector) Injected() uint64 { return i.injected.Load() }

// Roll applies the configured latency, then decides this operation's fate:
// nil to proceed, or the configured fault.
func (i *Injector) Roll() error {
	if i.latency > 0 {
		time.Sleep(i.latency)
	}
	if i.rate == 0 {
		return nil
	}
	i.mu.Lock()
	hit := i.rng.Float64() < i.rate
	i.mu.Unlock()
	if hit {
		i.injected.Add(1)
		return i.fault
	}
	return nil
}
