package ipc

import "io"

// FrameConn is one endpoint's view of the framed conduit carrying a procctl
// session: an ordered stream of command frames out to the peer, an ordered
// stream of response frames back, and a bulk data stream for write payloads.
// The pipe trio and a shared-memory lane both satisfy it, which is
// what lets the Mux, the batch writer, and the whole failure discipline run
// identically over either carrier.
//
// Close releases the conduit's resources and must unblock any reader parked
// on Resp — the Mux receive loop relies on that to terminate.
type FrameConn interface {
	Ctrl() io.Writer // command frames to the peer
	Resp() io.Reader // response frames from the peer
	Data() io.Writer // bulk write payloads to the peer; may be nil
	Close() error
}

// NewMuxConn builds a Mux over a FrameConn's three streams.
func NewMuxConn(c FrameConn) *Mux {
	return NewMux(c.Ctrl(), c.Resp(), c.Data())
}

// PipeConn adapts the parent-side ends of a ChannelFiles pipe trio into a
// FrameConn: commands on the control pipe, responses on the from-child data
// pipe, write payloads on the to-child data pipe.
type PipeConn struct {
	CF *ChannelFiles
}

func (p PipeConn) Ctrl() io.Writer { return p.CF.CtrlToChild }
func (p PipeConn) Resp() io.Reader { return p.CF.FromChild }
func (p PipeConn) Data() io.Writer { return p.CF.ToChild }
func (p PipeConn) Close() error    { return p.CF.Close() }
