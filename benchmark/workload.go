package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/activefile"
	"repro/benchmark/layers"
)

// workload is one configuration of the stack under the fixed operation mix.
// why is the reason it exists, repeated in BENCHMARK.json and the README.
type workload struct {
	name     string
	why      string
	strategy activefile.Strategy
	carrier  string            // Stats().Carrier the sessions must report
	params   map[string]string // manifest params of the steady file
	readers  int               // sessions held open; batches rotate over them
	fleet    bool              // three shards, cached reader, uncached writer
}

const fleetObject = "hot/object"

var workloads = []workload{
	{
		name:     "thread_mem",
		why:      "Thread strategy in process, the paper's Figure 6(c) Thread series: no mux, wire, carrier, remote or fleet work, so handle, rendezvous, dispatcher and cache do it all; the control for the others",
		strategy: activefile.StrategyThread,
		readers:  1,
	},
	{
		name:     "procctl_pipe",
		why:      "Process-plus-control over the default pipe carrier: ipc.Mux, wire framing, BatchWriter, DrainReader and the child serve loop do most of the work; open_us is fork/exec-dominated",
		strategy: activefile.StrategyProcessControl,
		carrier:  "pipe",
		readers:  1,
	},
	{
		name:     "procctl_shm",
		why:      "Same operations with transport=shm on one dedicated session: isolates the carrier against procctl_pipe, and gates whatever serves transport=shm after the carriers are unified",
		strategy: activefile.StrategyProcessControl,
		carrier:  "shm",
		params:   map[string]string{"transport": "shm"},
		readers:  1,
	},
	{
		name:     "lane_sessions",
		why:      "transport=shm,shmlanes=8: four sessions held on one shared segment, opens claim a fifth lane without a spawn; the MPSC queue, lane claim/release and laneHub, which nothing else touches",
		strategy: activefile.StrategyProcessControl,
		carrier:  "shm",
		params:   map[string]string{"transport": "shm", "shmlanes": "8"},
		readers:  4,
	},
	{
		name:     "fleet_cached",
		why:      "Thread strategy over fleet(cache=64,replicas=2) on three in-process shards: Zipf reads through a leased cache beside a second handle's revoking, replicated writes; remote, fleet, cache, daemon, TCP",
		strategy: activefile.StrategyThread,
		readers:  1,
		fleet:    true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is what set-up leaves behind for the phases to use: the active
// files on disk, for fleet_cached the running shards, and the open sessions
// the steady phase runs on.
type fixture struct {
	dir        string
	readerPath string // opened by the steady reader sessions and by churn
	writerPath string // opened by the steady writer; same as readerPath unless fleet
	fleet      *layers.Fleet

	readers []*session // batches rotate over these
	writer  *session   // readers[0] unless the workload has a separate writer
}

// setUp is the timed set-up of a workload, everything between an empty
// directory and the first steady operation: create the active files, seed
// the 1 MiB object, start whatever servers the workload needs, open the
// steady sessions (which spawns sentinels, maps segments, fills caches).
// Work that a change moves out of the operations and into any of these
// shows in setup_s.
func setUp(w workload, dir string, data []byte) (*fixture, error) {
	fx, err := createFiles(w, dir, data)
	if err != nil {
		return nil, err
	}
	if err := fx.openSteady(w, data); err != nil {
		fx.tearDown()
		return nil, err
	}
	return fx, nil
}

func createFiles(w workload, dir string, data []byte) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, readerPath: filepath.Join(dir, "steady.af")}
	fx.writerPath = fx.readerPath
	def := activefile.Definition{
		Program:  activefile.ProgramSpec{Name: "passthrough"},
		Strategy: w.strategy,
		Cache:    activefile.CacheMemory,
		Params:   w.params,
	}
	if !w.fleet {
		if err := activefile.Create(fx.readerPath, def); err != nil {
			return nil, err
		}
		if err := os.WriteFile(activefile.DataPath(fx.readerPath), data, 0o644); err != nil {
			return nil, err
		}
		return fx, nil
	}

	fl, err := layers.StartFleet(3, 2, "hot/*", fleetObject, data)
	if err != nil {
		return nil, err
	}
	fx.fleet = fl
	fx.writerPath = filepath.Join(dir, "writer.af")
	// The sentinel forwards every operation to the fleet object; the only
	// cache on the read path is the fleet client's lease-protected one.
	// readahead=false because the handle-level read-ahead window is not
	// lease-protected: a write through the other handle would leave it
	// stale, and this workload exists to measure coherent reads.
	def.Cache = activefile.CacheNone
	def.NoData = true
	for _, f := range []struct {
		path   string
		blocks int
	}{{fx.readerPath, cacheBlocks}, {fx.writerPath, 0}} {
		def.Params = map[string]string{"backend": fl.Spec(f.blocks), "object": fleetObject, "readahead": "false"}
		if err := activefile.Create(f.path, def); err != nil {
			fl.Close()
			return nil, err
		}
	}
	return fx, nil
}

// storeReads is how many reads have reached the shards' stores so far; 0
// for workloads without a fleet.
func (fx *fixture) storeReads() float64 {
	if fx.fleet == nil {
		return 0
	}
	return float64(fx.fleet.Counters().StoreReads)
}

// sessions returns the fixture's distinct open sessions.
func (fx *fixture) sessions() []*session {
	all := append([]*session(nil), fx.readers...)
	if fx.writer != nil && (len(all) == 0 || fx.writer != all[0]) {
		all = append(all, fx.writer)
	}
	return all
}

// tearDown closes whatever sessions are still open, retires the sentinels
// they leave warm, stops the fixture's servers and removes its files.
func (fx *fixture) tearDown() error {
	var errs []error
	for _, s := range fx.sessions() {
		errs = append(errs, s.h.Close()) // idempotent: a second Close reports nothing
	}
	fx.readers, fx.writer = nil, nil
	layers.Teardown()
	if fx.fleet != nil {
		errs = append(errs, fx.fleet.Close())
	}
	return errors.Join(append(errs, os.RemoveAll(fx.dir))...)
}

// session is one open handle with the bytes it must return. Handles that
// see each other's writes (the fleet reader and writer) share one shadow;
// handles with a private copy of the file (procctl sessions each populate
// their own memory cache from the data part) have one each.
type session struct {
	h      *activefile.Handle
	shadow []byte
}

// openSession opens path and checks that the session runs on the stack the
// workload is named after. A transport=shm request that was quietly served
// by pipes would otherwise be measured under the wrong name.
func openSession(w workload, path string, shadow []byte) (*session, error) {
	h, err := activefile.OpenActive(path)
	if err != nil {
		return nil, err
	}
	st := h.Stats()
	switch {
	case h.Strategy() != w.strategy:
		err = fmt.Errorf("%s: session runs strategy %v, want %v", w.name, h.Strategy(), w.strategy)
	case st.Carrier != w.carrier:
		err = fmt.Errorf("%s: session runs on carrier %q, want %q", w.name, st.Carrier, w.carrier)
	case st.CarrierFallback != "":
		err = fmt.Errorf("%s: carrier fell back: %s", w.name, st.CarrierFallback)
	}
	// A process open returns once fork+exec has, before the sentinel has
	// booted and filled its cache; asking for the size waits for both, and
	// proves the session serves the seeded object.
	if size, serr := h.Size(); err == nil && (serr != nil || size != objectSize) {
		err = fmt.Errorf("%s: new session reports size %d (%v), want %d", w.name, size, serr, objectSize)
	}
	if err != nil {
		h.Close()
		return nil, err
	}
	return &session{h: h, shadow: shadow}, nil
}

// openSteady opens the sessions the steady phase runs on: the readers, then
// the writer. Only the fleet workload has a separate writer; elsewhere the
// first reader takes the writes. On failure the sessions opened so far stay
// in the fixture for tearDown to close.
func (fx *fixture) openSteady(w workload, data []byte) error {
	if w.carrier == "shm" && !layers.ShmSupported() {
		return fmt.Errorf("%s: this platform cannot host the shm carrier", w.name)
	}
	for i := 0; i < w.readers; i++ {
		shadow := data // sessions that never see a write share the pristine bytes
		if i == 0 {
			shadow = append([]byte(nil), data...)
		}
		s, err := openSession(w, fx.readerPath, shadow)
		if err != nil {
			return err
		}
		fx.readers = append(fx.readers, s)
	}
	fx.writer = fx.readers[0]
	if w.fleet {
		s, err := openSession(w, fx.writerPath, fx.readers[0].shadow)
		if err != nil {
			return err
		}
		fx.writer = s
	}
	if w.readers > 1 {
		// All four sessions must share one segment, or the workload is not
		// measuring the lane plane.
		fds := layers.SnapshotShm()
		if fds.Segments != 1 || fds.LaneSessions != int64(w.readers) {
			return fmt.Errorf("%s: %d segments with %d lane sessions, want 1 with %d",
				w.name, fds.Segments, fds.LaneSessions, w.readers)
		}
	}
	return nil
}
