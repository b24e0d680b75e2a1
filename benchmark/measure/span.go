package measure

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// Span is one timed call (or one batch of N identical calls) into a layer.
// Start and End are nanoseconds since the recorder's epoch; Parent is the ID
// of the span that caused this one, -1 for a root.
type Span struct {
	ID, Parent int32
	Name       int32 // index into Recorder.Names
	N          int32 // calls the span covers; 1 for a single call
	Start, End int64
}

// Recorder keeps spans in a slice allocated once, so recording never
// allocates and never touches a lock: a slot is claimed with one atomic add
// and written only by the goroutine that claimed it. When the slice is full
// further spans are counted in Dropped and otherwise ignored — the calls
// they would have covered are still timed by the caller, so the traced pass
// costs the same per operation before and after the cap.
//
// A nil *Recorder records nothing; the untraced pass runs with one.
type Recorder struct {
	Workload string
	epoch    time.Time
	names    []string
	spans    []Span
	next     atomic.Int64
	dropped  atomic.Int64
}

// NewRecorder returns a recorder for up to capacity spans.
func NewRecorder(workload string, capacity int) *Recorder {
	return &Recorder{Workload: workload, epoch: time.Now(), spans: make([]Span, capacity)}
}

// Name interns a span name. Call it during set-up, not on the timed path,
// and not concurrently with itself.
func (r *Recorder) Name(s string) int32 {
	if r == nil {
		return 0
	}
	for i, n := range r.names {
		if n == s {
			return int32(i)
		}
	}
	r.names = append(r.names, s)
	return int32(len(r.names) - 1)
}

// claim takes the next free slot for a span, or returns -1 when there is no
// recorder or no room.
func (r *Recorder) claim(name, parent, n int32) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = Span{ID: int32(i), Parent: parent, Name: name, N: n}
	return int32(i)
}

// Begin opens a span covering n calls and returns its ID, or -1 when nothing
// was recorded.
func (r *Recorder) Begin(name, parent, n int32) int32 {
	id := r.claim(name, parent, n)
	if id >= 0 {
		r.spans[id].Start = int64(time.Since(r.epoch))
	}
	return id
}

// End closes the span Begin returned.
func (r *Recorder) End(id int32) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.epoch))
	}
}

// Add records a span whose interval the caller already measured.
func (r *Recorder) Add(name, parent, n int32, start, end time.Time) int32 {
	id := r.claim(name, parent, n)
	if id >= 0 {
		r.spans[id].Start = int64(start.Sub(r.epoch))
		r.spans[id].End = int64(end.Sub(r.epoch))
	}
	return id
}

// Skip counts a span the caller chose not to record (to keep room for later
// ones) as dropped, so the trace says how much it is missing.
func (r *Recorder) Skip() {
	if r != nil {
		r.dropped.Add(1)
	}
}

// Spans returns the recorded spans. Call it after every recording goroutine
// has finished.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// Names returns the interned span names, indexed by Span.Name.
func (r *Recorder) Names() []string { return r.names }

// Dropped reports how many spans arrived after the recorder was full.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// Durations returns, in microseconds per call, the duration of every
// recorded span with the given name.
func (r *Recorder) Durations(name int32) []float64 {
	var out []float64
	for _, s := range r.Spans() {
		if s.Name == name && s.End > s.Start {
			out = append(out, float64(s.End-s.Start)/1e3/float64(s.N))
		}
	}
	return out
}

// SelfTimes returns, per span name, the total self time in nanoseconds: each
// span's duration minus the part of its interval that its child spans cover.
// Overlapping children (two goroutines working for one parent) are merged
// first, so covered time is never subtracted twice.
func SelfTimes(spans []Span) map[int32]int64 {
	children := make(map[int32][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64)
	for _, s := range spans {
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		edge := s.Start // everything before edge is already accounted for
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// WriteJSON writes the trace: a header, the name table, then one array per
// span in the order of "fields". Spans are arrays rather than objects to
// keep a quarter of a million of them readable by ordinary tools.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "{\"workload\":%q,\"epoch_unix_ns\":%d,\"dropped\":%d,\n", r.Workload, r.epoch.UnixNano(), r.Dropped())
	fmt.Fprint(bw, "\"fields\":[\"id\",\"parent\",\"name\",\"calls\",\"start_ns\",\"end_ns\"],\n\"names\":[")
	for i, n := range r.names {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "%q", n)
	}
	fmt.Fprint(bw, "],\n\"spans\":[\n")
	for i, s := range r.Spans() {
		if i > 0 {
			bw.WriteString(",\n")
		}
		fmt.Fprintf(bw, "[%d,%d,%d,%d,%d,%d]", s.ID, s.Parent, s.Name, s.N, s.Start, s.End)
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
