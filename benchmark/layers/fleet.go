// Package layers is the only part of the benchmark that imports the
// repository's internal packages. It holds what cannot be reached through
// repro/activefile: the in-process shard fleet of the fleet_cached workload,
// the process-wide teardown and descriptor gauges, and the ladder that
// measures each layer at its public boundary.
//
// It stays away from the APIs ROADMAP earmarks for deletion (shm.New,
// shm.NewMulti, wire.Submitter, NUMA placement, PrewarmSentinels,
// internal/aggregate, internal/intermediary, internal/bench), so removing
// them never needs an edit here.
package layers

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/remote"
	"repro/internal/shm"
)

// countingStore wraps a shard's backend so the benchmark can see, from
// below the whole stack, how many reads reached a store: client reads
// divided into store reads is the fleet cache's miss traffic, counted where
// the work happens rather than inferred from the cache's own ledger.
type countingStore struct {
	backend.Backend
	reads atomic.Uint64
}

func (c *countingStore) Open(name string) (backend.Object, error) {
	o, err := c.Backend.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingObject{Object: o, store: c}, nil
}

type countingObject struct {
	backend.Object
	store *countingStore
}

func (o *countingObject) ReadAt(p []byte, off int64) (int, error) {
	o.store.reads.Add(1)
	return o.Object.ReadAt(p, off)
}

// Fleet is a set of in-process FileServer shards wired the way cmd/afd wires
// them: a mem store behind NewFileServerWith, a daemon registry for
// admission, and static fleet membership through SetFleet.
type Fleet struct {
	Addrs []string

	replicas int
	hot      string
	servers  []*remote.FileServer
	stores   []*countingStore
	regs     []*daemon.Registry
}

// StartFleet boots n shards on ephemeral loopback ports with the given
// replication factor and hot-file glob, and seeds object with data through a
// plain fleet client so the primary replicates it as it would any write.
func StartFleet(n, replicas int, hot, object string, data []byte) (*Fleet, error) {
	f := &Fleet{replicas: replicas, hot: hot}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	for i := 0; i < n; i++ {
		store := &countingStore{Backend: backend.NewMem()}
		reg := daemon.NewRegistry(daemon.Quotas{})
		srv := remote.NewFileServerWith(store)
		srv.SetRegistry(reg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		f.servers = append(f.servers, srv)
		f.stores = append(f.stores, store)
		f.regs = append(f.regs, reg)
		f.Addrs = append(f.Addrs, addr)
	}
	m, err := fleet.NewMap(1, f.Addrs, replicas, []string{hot})
	if err != nil {
		return nil, err
	}
	for i, srv := range f.servers {
		srv.SetFleet(m, f.Addrs[i])
	}
	obj, err := fleet.New(m, fleet.Options{}).Open(object)
	if err != nil {
		return nil, err
	}
	_, werr := obj.WriteAt(data, 0)
	if err := errors.Join(werr, obj.Close()); err != nil {
		return nil, fmt.Errorf("seed %s: %w", object, err)
	}
	ok = true
	return f, nil
}

// Spec returns the backend spec a manifest uses to reach the fleet, with
// client caching of cacheBlocks 4 KiB blocks (0 for none).
func (f *Fleet) Spec(cacheBlocks int) string {
	opts := fmt.Sprintf("replicas=%d,hot=%s", f.replicas, f.hot)
	if cacheBlocks > 0 {
		opts = fmt.Sprintf("cache=%d,bsize=4096,%s", cacheBlocks, opts)
	}
	return fmt.Sprintf("fleet(%s):%s", opts, strings.Join(f.Addrs, ","))
}

// FleetCounters are the shard-side totals of a fleet, summed over shards.
type FleetCounters struct {
	StoreReads     uint64 // reads that reached a shard's store
	LeaseGrants    uint64
	LeaseRevokes   uint64
	RevokeTimeouts uint64
	ApplyForwards  uint64
	Refusals       uint64 // admissions the daemon registries turned away
}

// Counters snapshots the fleet's shard-side totals.
func (f *Fleet) Counters() FleetCounters {
	var c FleetCounters
	for i, srv := range f.servers {
		ls := srv.LeaseStats()
		c.StoreReads += f.stores[i].reads.Load()
		c.LeaseGrants += ls.Grants
		c.LeaseRevokes += ls.Revokes
		c.RevokeTimeouts += ls.RevokeTimeouts
		c.ApplyForwards += srv.ApplyForwards()
		snap := f.regs[i].Snapshot()
		c.Refusals += snap.RejectedShutdown
		for _, t := range snap.Tenants {
			c.Refusals += t.RejectedOverload + t.RejectedQuota
		}
	}
	return c
}

// Holding reports how many shards store object with exactly the given
// SHA-256 — the replicas that converged on the bytes the client was told it
// wrote. A shard that was merely asked about the object holds an empty one.
func (f *Fleet) Holding(object string, digest []byte) int {
	n := 0
	for _, srv := range f.servers {
		if data, ok := srv.Get(object); ok {
			if d := sha256.Sum256(data); bytes.Equal(d[:], digest) {
				n++
			}
		}
	}
	return n
}

// Close drains and stops every shard.
func (f *Fleet) Close() error {
	var errs []error
	for _, srv := range f.servers {
		errs = append(errs, srv.Close())
	}
	f.servers = nil
	return errors.Join(errs...)
}

// Teardown retires what procctl sessions leave behind in the process after
// their handles close: idle warm-pool sentinels and the warm lane segment
// with its shared sentinel. After it returns, no child of this process that
// the repository started is alive.
func Teardown() {
	core.DrainSentinelPool()
	core.DrainSharedSegments()
}

// ShmFDs is the process-wide descriptor economy of the shared-memory plane.
type ShmFDs struct {
	Segments, DoorbellFDs, LaneSessions int64
}

// SnapshotShm returns the current shared-memory gauges.
func SnapshotShm() ShmFDs {
	s := shm.SnapshotFDs()
	return ShmFDs{Segments: s.Segments, DoorbellFDs: s.DoorbellFDs, LaneSessions: s.LaneSessions}
}

// ShmSupported reports whether this platform can host the shm carrier.
func ShmSupported() bool { return shm.Supported() }
