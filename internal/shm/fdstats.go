package shm

import "sync/atomic"

// Process-wide descriptor accounting for the shared-memory data plane. Every
// mapped segment, created or attached, registers the descriptors it holds
// open, and lane claims count the sessions multiplexed over them. The point
// is the ratio: the doorbell count grows with segments, not sessions, and
// these gauges are how tests and the daemon snapshot pin that down.
var (
	fdSegments     atomic.Int64 // mapped segments in this process
	fdSegmentFiles atomic.Int64 // backing files (memfd / unlinked temp) held open
	fdDoorbells    atomic.Int64 // doorbell eventfds held open
	fdLaneSessions atomic.Int64 // lanes currently claimed on MPSC segments
)

// FDStats is a snapshot of the data plane's descriptor economy.
type FDStats struct {
	Segments     int64 // mapped segments (all kinds)
	SegmentFiles int64 // backing file descriptors
	DoorbellFDs  int64 // doorbell eventfd descriptors
	LaneSessions int64 // sessions claimed on MPSC lane segments
}

// SnapshotFDs returns the current process-wide descriptor gauges.
func SnapshotFDs() FDStats {
	return FDStats{
		Segments:     fdSegments.Load(),
		SegmentFiles: fdSegmentFiles.Load(),
		DoorbellFDs:  fdDoorbells.Load(),
		LaneSessions: fdLaneSessions.Load(),
	}
}
