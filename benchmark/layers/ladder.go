package layers

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/benchmark/measure"
	"repro/internal/backend"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/ipc"
	"repro/internal/program"
	"repro/internal/remote"
	"repro/internal/vfs"
	"repro/internal/wire"
)

// Inputs is what a ladder run is given. The offsets and payload come from
// the same seeded stream the workloads replay, so every rung sees the access
// pattern the end-to-end numbers were measured with.
type Inputs struct {
	Dir     string            // empty directory for the ladder's active files
	Data    []byte            // contents of the object, one block multiple long
	Offsets []int64           // offsets of 128-byte operations inside Data
	Payload []byte            // bytes every write stores
	Rung    time.Duration     // time spent measuring one rung
	Opens   time.Duration     // time spent on each open/close rung
	Host    *measure.Host     // every batch is bracketed by its readings, as the workloads' batches are
	Rec     *measure.Recorder // spans go here; may be nil
	Parent  int32             // span the rungs hang under
}

const (
	ioSize     = 128
	blockSize  = 4096
	blockCount = 64
	object     = "hot/ladder"
)

// ladder carries the state shared by the rungs.
type ladder struct {
	in   Inputs
	out  map[string]float64
	buf  []byte
	next int // index of the next offset to use

	// batch is the span of the batch currently being timed; the mux echo
	// server hangs its decode/encode spans under it from its own goroutine.
	batch atomic.Int32
}

func (l *ladder) off() int64 {
	o := l.in.Offsets[l.next%len(l.in.Offsets)]
	l.next++
	return o
}

// rung times op in batches for d and returns the median, over the batches
// that ran while the host was quiet, of the mean nanoseconds per call. The
// batch doubles until it lasts half a millisecond (those warm-up batches are
// discarded) and then stays fixed, so the clock is read about twice per
// millisecond whatever the call costs, and each measured batch is one span.
func (l *ladder) rung(span string, d time.Duration, op func() error) (float64, error) {
	name := l.in.Rec.Name(span)
	var means []measure.Sample
	n, sized := 1, false
	for start := time.Now(); time.Since(start) < d || len(means) == 0; { // at least one measured batch
		p := l.in.Host.Begin()
		id := int32(-1)
		if sized {
			id = l.in.Rec.Begin(name, l.in.Parent, int32(n))
		}
		l.batch.Store(id)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return 0, fmt.Errorf("%s: %w", span, err)
			}
		}
		took := time.Since(t0)
		l.in.Rec.End(id)
		switch {
		case sized:
			means = append(means, l.in.Host.End(p, float64(took.Nanoseconds())/float64(n)))
		case took >= 500*time.Microsecond:
			sized = true
		default:
			n *= 2
		}
	}
	return l.reduce(means), nil
}

// reduce closes the samples of one rung with a last host reading and returns
// their median over the quiet ones.
func (l *ladder) reduce(samples []measure.Sample) float64 {
	l.in.Host.Probe(true)
	v, _, _ := l.in.Host.Reduce([][]measure.Sample{samples})
	return v
}

// set measures one rung into the named metric, scaled by 1/div (1 for ns,
// 1000 for µs).
func (l *ladder) set(metric, span string, div float64, op func() error) error {
	ns, err := l.rung(span, l.in.Rung, op)
	l.out[metric] = ns / div
	return err
}

func full(n int, err error) error {
	if err == nil && n != ioSize {
		err = io.ErrShortWrite
	}
	return err
}

// Ladder measures every layer of the stack at its public boundary, bottom
// up, and returns the per-layer metrics that do not depend on the workload.
// A layer's self time is its rung minus the rung below it: on the thread
// path, cache -> program -> direct handle -> thread handle, whose top rung
// (core.thread_read_ns) is what thread_mem's read_us should come to.
func Ladder(in Inputs) (map[string]float64, error) {
	program.RegisterAll()
	l := &ladder{in: in, out: map[string]float64{}, buf: make([]byte, ioSize)}
	l.batch.Store(-1)
	for _, step := range []func() error{
		l.backend, l.cache, l.programAndHandles, l.rendezvous, l.wire, l.mux,
		l.vfsAndOpens, l.remote, l.fleet, l.daemon,
	} {
		if err := step(); err != nil {
			return l.out, err
		}
	}
	return l.out, nil
}

func (l *ladder) backend() error {
	b, err := backend.Open("mem")
	if err != nil {
		return err
	}
	defer b.Close()
	o, err := b.Open(object)
	if err != nil {
		return err
	}
	defer o.Close()
	if _, err := o.WriteAt(l.in.Data, 0); err != nil {
		return err
	}
	return errors.Join(
		l.set("backend.read_ns", "backend.Object.ReadAt", 1, func() error { return full(o.ReadAt(l.buf, l.off())) }),
		l.set("backend.write_ns", "backend.Object.WriteAt", 1, func() error { return full(o.WriteAt(l.in.Payload, l.off())) }),
	)
}

// newFile creates an active file in the ladder's directory running the
// passthrough program over a seeded data part cached in memory.
func (l *ladder) newFile(name, strategy string, params map[string]string) (string, error) {
	path := filepath.Join(l.in.Dir, name+vfs.Extension)
	m := vfs.Manifest{
		Program:  vfs.ProgramSpec{Name: "passthrough"},
		Strategy: strategy,
		Cache:    "memory",
		Params:   params,
	}
	if err := vfs.Create(path, m); err != nil {
		return "", err
	}
	return path, os.WriteFile(vfs.DataPath(path), l.in.Data, 0o644)
}

func (l *ladder) cache() error {
	path, err := l.newFile("cache", "thread", nil)
	if err != nil {
		return err
	}
	m, err := vfs.Load(path)
	if err != nil {
		return err
	}
	cb, err := (&core.Env{Path: path, Manifest: m}).OpenBackend()
	if err != nil {
		return err
	}
	defer cb.Close()
	if err := l.set("cache.read_ns", "cache.Backend.ReadAt(memory)", 1, func() error { return full(cb.ReadAt(l.buf, l.off())) }); err != nil {
		return err
	}

	store := cache.NewMemStore()
	if _, err := store.WriteAt(l.in.Data, 0); err != nil {
		return err
	}
	bc, err := cache.NewBlockCache(store, blockSize, blockCount)
	if err != nil {
		return err
	}
	// Hits: every offset folded into the first 64 blocks, which fit.
	const resident = blockCount*blockSize - ioSize
	err = l.set("cache.hit_ns", "cache.BlockCache.ReadAt(hit)", 1, func() error { return full(bc.ReadAt(l.buf, l.off()%resident)) })
	if err != nil {
		return err
	}
	// Misses: walk the blocks in order; with four times more blocks than
	// capacity the LRU has always evicted the next one.
	blocks, k := int64(len(l.in.Data)/blockSize), int64(0)
	return l.set("cache.fill_us", "cache.BlockCache.ReadAt(miss)", 1e3, func() error {
		k++
		return full(bc.ReadAt(l.buf, (k%blocks)*blockSize))
	})
}

func (l *ladder) programAndHandles() error {
	path, err := l.newFile("thread", "thread", nil)
	if err != nil {
		return err
	}
	m, err := vfs.Load(path)
	if err != nil {
		return err
	}
	p, err := core.LookupProgram("passthrough")
	if err != nil {
		return err
	}
	h, err := p.Open(&core.Env{Path: path, Manifest: m})
	if err != nil {
		return err
	}
	defer h.Close()
	if err := l.set("program.read_ns", "core.Handler.ReadAt(passthrough)", 1, func() error { return full(h.ReadAt(l.buf, l.off())) }); err != nil {
		return err
	}

	direct, err := core.Open(path, core.Options{Strategy: core.StrategyDirect})
	if err != nil {
		return err
	}
	defer direct.Close()
	err = errors.Join(
		l.set("core.direct_read_ns", "core.Handle.ReadAt(direct)", 1, func() error { return full(direct.ReadAt(l.buf, l.off())) }),
		l.set("core.direct_write_ns", "core.Handle.WriteAt(direct)", 1, func() error { return full(direct.WriteAt(l.in.Payload, l.off())) }),
	)
	if err != nil {
		return err
	}
	l.out["core.handle_ns"] = l.out["core.direct_read_ns"] - l.out["program.read_ns"]

	thread, err := core.Open(path, core.Options{Strategy: core.StrategyThread})
	if err != nil {
		return err
	}
	defer thread.Close()
	return l.set("core.thread_read_ns", "core.Handle.ReadAt(thread)", 1, func() error { return full(thread.ReadAt(l.buf, l.off())) })
}

func (l *ladder) rendezvous() error {
	rv := ipc.NewRendezvous[int64, int64]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			req, reply, err := rv.Next()
			if err != nil {
				return
			}
			reply(req)
		}
	}()
	err := l.set("ipc.rendezvous_ns", "ipc.Rendezvous.Call(echo)", 1, func() error {
		_, err := rv.Call(l.off())
		return err
	})
	rv.Close()
	<-done
	return err
}

func (l *ladder) wire() error {
	req := wire.Request{Op: wire.OpRead, Seq: 7, N: ioSize}
	resp := wire.Response{Status: wire.StatusOK, Seq: 7, N: ioSize, Data: l.in.Payload}
	frame := make([]byte, 0, 512)
	var reqFrame, respFrame []byte
	encode := func() error {
		var err error
		if reqFrame, err = wire.AppendRequest(frame[:0], &req); err != nil {
			return err
		}
		req.Off = l.off()
		respFrame, err = wire.AppendResponse(reqFrame, &resp)
		respFrame = respFrame[len(reqFrame):]
		return err
	}
	decode := func() error {
		// Frames start with a four-byte length the stream reader consumes.
		if _, err := wire.DecodeRequest(reqFrame[4:]); err != nil {
			return err
		}
		_, err := wire.DecodeResponse(respFrame[4:])
		return err
	}
	// Each call handles two frames, a request and a 128-byte response.
	if err := errors.Join(
		l.set("wire.encode_ns", "wire.AppendRequest+AppendResponse", 2, encode),
		l.set("wire.decode_ns", "wire.DecodeRequest+DecodeResponse", 2, decode),
	); err != nil {
		return err
	}
	const rounds = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if err := errors.Join(encode(), decode()); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	l.out["wire.allocs_per_frame"] = float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	return nil
}

// mux measures a round trip through ipc.Mux and the wire stream codec with
// no carrier underneath: both ends are in this process, joined by in-memory
// pipes, and the peer is an echo server the benchmark owns. What a procctl
// read costs beyond this and the direct handle is the carrier's.
func (l *ladder) mux() error {
	client, server := ipc.NewDuplex(1 << 20)
	payloads := ipc.NewPipe(1 << 20)
	decode, encode := l.in.Rec.Name("mux.echo.ReadRequest"), l.in.Rec.Name("mux.echo.WriteResponse")

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the echo server
		defer wg.Done()
		r, w := wire.NewReader(server), wire.NewWriter(server)
		data := make([]byte, ioSize)
		sink := make([]byte, ioSize)
		for served := 0; ; served++ {
			// One exchange in 1024 is traced; a span per exchange would
			// outnumber every other span in the trace.
			traced := served%1024 == 0
			var t0 time.Time
			if traced {
				t0 = time.Now()
			}
			req, err := r.ReadRequest()
			if err != nil {
				return
			}
			if traced {
				l.in.Rec.Add(decode, l.batch.Load(), 1, t0, time.Now())
			}
			resp := wire.Response{Status: wire.StatusOK, Seq: req.Seq}
			switch req.Op {
			case wire.OpRead:
				resp.N, resp.Data = req.N, data[:req.N]
			case wire.OpWrite: // posted: payload on the data pipe, no reply
				if _, err := io.ReadFull(payloads, sink[:req.N]); err != nil {
					return
				}
				continue
			}
			if traced {
				t0 = time.Now()
			}
			if err := w.WriteResponse(&resp); err != nil {
				return
			}
			if traced {
				l.in.Rec.Add(encode, l.batch.Load(), 1, t0, time.Now())
			}
		}
	}()

	m := ipc.NewMux(client, client, payloads)
	err := l.set("ipc.mux_rt_us", "ipc.Mux.RoundTrip(read 128B)", 1e3, func() error {
		resp, err := m.RoundTrip(&wire.Request{Op: wire.OpRead, Off: l.off(), N: ioSize}, l.buf)
		if err == nil && len(resp.Data) != ioSize {
			err = io.ErrUnexpectedEOF
		}
		return err
	})
	if err == nil {
		// The write-batch pattern: 64 posted writes, then a barrier.
		before := m.BatchStats()
		_, err = l.rung("ipc.Mux.Post x64 + RoundTrip(sync)", l.in.Rung, func() error {
			for i := 0; i < 64; i++ {
				if err := m.Post(&wire.Request{Op: wire.OpWrite, Off: l.off(), N: ioSize}, l.in.Payload); err != nil {
					return err
				}
			}
			_, err := m.RoundTrip(&wire.Request{Op: wire.OpSync}, nil)
			return err
		})
		after := m.BatchStats()
		if flushes := after.Flushes - before.Flushes; flushes > 0 {
			l.out["wire.frames_per_flush"] = float64(after.Frames-before.Frames) / float64(flushes)
		}
	}
	m.Close()
	client.Close()
	payloads.Close()
	wg.Wait()
	return err
}

// openRung times open-to-first-byte on path for the opens budget, closing
// outside the timed region, and returns the median in microseconds. ready,
// when set, is waited for before each open (the warm pool refills in the
// background after a close).
func (l *ladder) openRung(span, path string, ready func() bool) (float64, error) {
	name := l.in.Rec.Name(span)
	var us []measure.Sample
	for start := time.Now(); time.Since(start) < l.in.Opens; {
		for wait := time.Now(); ready != nil && !ready() && time.Since(wait) < time.Second; {
			time.Sleep(time.Millisecond)
		}
		off := 4096 + l.off()%int64(len(l.in.Data)-8192) // past the read-ahead slack; see newStream
		p := l.in.Host.Begin()
		t0 := time.Now()
		h, err := core.Open(path, core.Options{})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
		_, err = h.ReadAt(l.buf, off)
		t1 := time.Now()
		us = append(us, l.in.Host.End(p, float64(t1.Sub(t0).Nanoseconds())/1e3))
		if err = errors.Join(err, h.Close()); err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
		l.in.Rec.Add(name, l.in.Parent, 1, t0, t1)
	}
	return l.reduce(us), nil
}

func (l *ladder) vfsAndOpens() error {
	spawn, err := l.newFile("spawn", "procctl", nil)
	if err != nil {
		return err
	}
	err = l.set("vfs.load_us", "vfs.Load", 1e3, func() error {
		_, err := vfs.Load(spawn)
		return err
	})
	if err != nil {
		return err
	}
	if l.out["core.spawn_open_us"], err = l.openRung("core.Open+ReadAt(procctl spawn)", spawn, nil); err != nil {
		return err
	}

	pool, err := l.newFile("pool", "procctl", map[string]string{"pool": "2"})
	if err != nil {
		return err
	}
	// The first close primes the pool; every timed open then adopts a warm
	// sentinel.
	prime, err := core.Open(pool, core.Options{})
	if err != nil {
		return err
	}
	if err := prime.Close(); err != nil {
		return err
	}
	defer core.DrainSentinelPool()
	l.out["core.pool_open_us"], err = l.openRung("core.Open+ReadAt(procctl pool=2)", pool, func() bool { return core.IdleSentinels(pool) > 0 })
	if err != nil || !ShmSupported() {
		return err
	}

	lane, err := l.newFile("lane", "procctl", map[string]string{"transport": "shm", "shmlanes": "8"})
	if err != nil {
		return err
	}
	held, err := core.Open(lane, core.Options{}) // keeps the segment claimed, as lane_sessions does
	if err != nil {
		return err
	}
	defer core.DrainSharedSegments()
	defer held.Close()
	l.out["core.lane_open_us"], err = l.openRung("core.Open+ReadAt(procctl lane)", lane, nil)
	return err
}

func (l *ladder) remote() error {
	srv := remote.NewFileServerWith(backend.NewMem())
	srv.Put(object, l.in.Data)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()

	name := l.in.Rec.Name("remote.Dial")
	var dials []measure.Sample
	for start := time.Now(); time.Since(start) < l.in.Rung; {
		p := l.in.Host.Begin()
		t0 := time.Now()
		c, err := remote.Dial(addr, object)
		t1 := time.Now()
		if err != nil {
			return err
		}
		dials = append(dials, l.in.Host.End(p, float64(t1.Sub(t0).Nanoseconds())/1e3))
		c.Close()
		l.in.Rec.Add(name, l.in.Parent, 1, t0, t1)
	}
	l.out["remote.dial_us"] = l.reduce(dials)

	c, err := remote.Dial(addr, object)
	if err != nil {
		return err
	}
	defer c.Close()
	return errors.Join(
		l.set("remote.read_rt_us", "remote.Client.ReadAt", 1e3, func() error { return full(c.ReadAt(l.buf, l.off())) }),
		l.set("remote.write_rt_us", "remote.Client.WriteAt", 1e3, func() error { return full(c.WriteAt(l.in.Payload, l.off())) }),
	)
}

func (l *ladder) fleet() error {
	fl, err := StartFleet(3, 2, "hot/*", object, l.in.Data)
	if err != nil {
		return err
	}
	defer fl.Close()
	m, err := fleet.Fetch(fl.Addrs, remote.DialOptions{})
	if err != nil {
		return err
	}
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("tenant%d/object%d", i%8, i)
	}
	k := 0
	sink := 0
	err = l.set("fleet.route_ns", "fleet.Map.Primary", 1, func() error {
		k++
		sink += len(m.Primary(names[k%len(names)]))
		return nil
	})
	if err != nil || sink == 0 {
		return errors.Join(err, errors.New("fleet map routed nothing"))
	}
	obj, err := fleet.New(m, fleet.Options{}).Open(object)
	if err != nil {
		return err
	}
	defer obj.Close()
	return l.set("fleet.uncached_read_us", "fleet.Object.ReadAt(no cache)", 1e3, func() error { return full(obj.ReadAt(l.buf, l.off())) })
}

func (l *ladder) daemon() error {
	reg := daemon.NewRegistry(daemon.Quotas{})
	s, err := reg.Admit("ladder")
	if err != nil {
		return err
	}
	defer s.Close()
	return l.set("daemon.admit_ns", "daemon.Session.Begin+Done", 1, func() error {
		done, err := s.Begin(wire.OpRead, ioSize)
		if err == nil {
			done(nil, ioSize)
		}
		return err
	})
}
