package core

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/shm"
	"repro/internal/vfs"
)

// Options adjust how an active file is opened.
type Options struct {
	// Strategy overrides the manifest's default implementation strategy.
	Strategy Strategy
	// Registry resolves program names; nil selects the default registry.
	Registry *Registry
}

// sessionOptions are the manifest params that shape a session's data path,
// parsed once per open (in Open) and once per sentinel (in runChild).
type sessionOptions struct {
	transport   string        // procctl carrier: "pipe" (default) or "shm" (param "transport")
	lanes       int           // sessions per shm segment, 1..shm.MaxLanes (param "shmlanes"; 1 when unset)
	pool        int           // idle lane segments kept booted per file (param "pool"; 0 retires on last close)
	opTimeout   time.Duration // per-exchange deadline (param "optimeout", a Go duration; 0 disables)
	readAhead   bool          // read-ahead windows, on unless param "readahead" is "false"
	writeBehind bool          // write coalescing, off unless param "writebehind" is "true"
}

// parseSessionOptions validates and parses m's session params.
func parseSessionOptions(m vfs.Manifest) (sessionOptions, error) {
	p := m.Params
	o := sessionOptions{
		transport:   "pipe",
		lanes:       1,
		readAhead:   p["readahead"] != "false",
		writeBehind: p["writebehind"] == "true",
	}
	switch v := p["transport"]; v {
	case "", "pipe":
	case "shm":
		o.transport = "shm"
	default:
		return o, fmt.Errorf("core: bad transport param %q (want pipe or shm)", v)
	}
	if v := p["pool"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, fmt.Errorf("core: bad pool param %q", v)
		}
		// Warm segments live on the lane plane: pool selects it when no
		// carrier is named, and pipes cannot host it.
		if n > 0 {
			if p["transport"] == "pipe" {
				return o, fmt.Errorf("core: pool=%d requires transport=shm, not transport=pipe", n)
			}
			o.transport = "shm"
		}
		o.pool = n
	}
	if v := p["shmlanes"]; v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > shm.MaxLanes {
			return o, fmt.Errorf("core: bad shmlanes param %q (want 1..%d)", v, shm.MaxLanes)
		}
		if o.transport != "shm" {
			return o, fmt.Errorf("core: shmlanes=%d requires transport=shm", n)
		}
		o.lanes = n
	}
	if v := p["optimeout"]; v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			return o, fmt.Errorf("core: bad optimeout param %q", v)
		}
		o.opTimeout = d
	}
	return o, nil
}

// Open opens the active file at path: it loads the manifest, resolves the
// sentinel program and strategy, instantiates the sentinel (spawning a
// subprocess or goroutine as the strategy dictates), and returns the
// connected Handle. This is the machinery behind the instrumented
// OpenFile/CreateFile stub.
func Open(path string, opts Options) (*Handle, error) {
	m, err := vfs.Load(path)
	if err != nil {
		return nil, err
	}
	o, err := parseSessionOptions(m)
	if err != nil {
		return nil, err
	}

	strategy := opts.Strategy
	if strategy == 0 {
		if strategy, err = ParseStrategy(m.Strategy); err != nil {
			return nil, err
		}
	}
	if !strategy.Valid() {
		return nil, fmt.Errorf("core: invalid strategy %v", strategy)
	}

	switch strategy {
	case StrategyProcess:
		tr, err := newProcessTransport(path, m)
		if err != nil {
			return nil, err
		}
		return newHandle(strategy, tr), nil

	case StrategyProcCtl:
		tr, err := newProcCtlTransport(path, m, o)
		if err != nil {
			return nil, err
		}
		return newHandle(strategy, tr), nil

	case StrategyThread, StrategyDirect:
		registry := opts.Registry
		if registry == nil {
			registry = defaultRegistry
		}
		program, err := registry.Lookup(m.Program.Name)
		if err != nil {
			return nil, err
		}
		handler, err := program.Open(&Env{Path: path, Manifest: m})
		if err != nil {
			return nil, fmt.Errorf("open program %q: %w", m.Program.Name, err)
		}
		if strategy == StrategyThread {
			return newHandle(strategy, newThreadTransport(handler, o)), nil
		}
		// Direct calls have no switch cost to hide, so read-ahead buys
		// nothing; write coalescing still batches handler round trips.
		return newHandle(strategy, newDirectTransport(handler, o.writeBehind)), nil

	default:
		return nil, fmt.Errorf("core: unhandled strategy %v", strategy)
	}
}
