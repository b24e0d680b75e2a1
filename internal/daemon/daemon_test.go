package daemon

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/shm"
	"repro/internal/wire"
)

func TestTenantOf(t *testing.T) {
	cases := map[string]string{
		"acme/logs/today": "acme",
		"acme/x":          "acme",
		"plain":           DefaultTenant,
		"/leading":        DefaultTenant,
		"trailing/":       DefaultTenant,
		"":                DefaultTenant,
	}
	for name, want := range cases {
		if got := TenantOf(name); got != want {
			t.Errorf("TenantOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSessionQuota(t *testing.T) {
	r := NewRegistry(Quotas{MaxSessions: 2})
	s1, err := r.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Admit("a"); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("third session admitted: err = %v", err)
	}
	// Another tenant has its own budget.
	sb, err := r.Admit("b")
	if err != nil {
		t.Fatalf("tenant b starved by tenant a: %v", err)
	}
	sb.Close()
	// Releasing a slot readmits.
	s1.Close()
	s1.Close() // idempotent
	s3, err := r.Admit("a")
	if err != nil {
		t.Fatalf("readmission after release: %v", err)
	}
	s3.Close()
	s2.Close()

	st := r.Snapshot()
	if st.Sessions != 0 {
		t.Errorf("sessions gauge = %d after all closed", st.Sessions)
	}
	for _, row := range st.Tenants {
		if row.Name == "a" {
			if row.PeakSessions != 2 || row.RejectedQuota != 1 {
				t.Errorf("tenant a row = %+v", row)
			}
		}
	}
}

func TestInFlightBoundRejectsOverload(t *testing.T) {
	r := NewRegistry(Quotas{MaxInFlight: 2})
	s, err := r.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	d1, err := s.Begin(wire.OpRead, 8)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Begin(wire.OpRead, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(wire.OpRead, 8); !errors.Is(err, wire.ErrOverloaded) {
		t.Fatalf("third op admitted past bound: err = %v", err)
	}
	d1(nil, 8)
	// A released slot admits again — overload is transient.
	d3, err := s.Begin(wire.OpWrite, 4)
	if err != nil {
		t.Fatalf("op after release: %v", err)
	}
	d3(nil, 4)
	d2(errors.New("boom"), 0)

	st := r.Snapshot()
	row := st.Tenants[0]
	if row.Ops != 3 || row.Errors != 1 || row.RejectedOverload != 1 {
		t.Errorf("tenant row = %+v", row)
	}
	if row.BytesRead != 8 || row.BytesWritten != 4 {
		t.Errorf("byte accounting = read %d, written %d", row.BytesRead, row.BytesWritten)
	}
	if row.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after settle", row.InFlight)
	}
}

func TestByteBudgetRejectsQuota(t *testing.T) {
	r := NewRegistry(Quotas{MaxBytes: 100})
	s, _ := r.Admit("a")
	defer s.Close()
	done, err := s.Begin(wire.OpRead, 80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(wire.OpRead, 40); !errors.Is(err, wire.ErrQuotaExceeded) {
		t.Fatalf("byte budget not enforced: err = %v", err)
	}
	done(nil, 80)
	done2, err := s.Begin(wire.OpRead, 40)
	if err != nil {
		t.Fatalf("bytes not released on settle: %v", err)
	}
	done2(nil, 40)
}

func TestDrainRefusesNewWorkAndWaits(t *testing.T) {
	r := NewRegistry(Quotas{})
	s, _ := r.Admit("a")
	done, err := s.Begin(wire.OpRead, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A drain with work in flight misses a short deadline...
	if r.Drain(time.Millisecond) {
		t.Fatal("drain reported clean with an op in flight")
	}
	// ...and everything new is refused, typed.
	if _, err := r.Admit("a"); !errors.Is(err, wire.ErrShuttingDown) {
		t.Errorf("admit while draining: err = %v", err)
	}
	if _, err := s.Begin(wire.OpRead, 0); !errors.Is(err, wire.ErrShuttingDown) {
		t.Errorf("begin while draining: err = %v", err)
	}

	// Settling the straggler lets a second drain succeed.
	go func() {
		time.Sleep(5 * time.Millisecond)
		done(nil, 0)
	}()
	if !r.Drain(time.Second) {
		t.Fatal("drain did not complete after in-flight op settled")
	}
	if !r.Draining() || r.InFlight() != 0 {
		t.Errorf("post-drain state: draining=%v inflight=%d", r.Draining(), r.InFlight())
	}
}

// TestConcurrentAdmission hammers one registry from many goroutines: the
// bound must hold (never more than MaxInFlight concurrently admitted per
// tenant), no operation may deadlock, and the gauges must return to zero.
func TestConcurrentAdmission(t *testing.T) {
	const (
		workers = 32
		opsEach = 200
		bound   = 8
	)
	r := NewRegistry(Quotas{MaxInFlight: bound})
	s, err := r.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		cur, max int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				done, err := s.Begin(wire.OpRead, 1)
				if errors.Is(err, wire.ErrOverloaded) {
					continue
				}
				if err != nil {
					t.Errorf("Begin: %v", err)
					return
				}
				mu.Lock()
				cur++
				if cur > max {
					max = cur
				}
				mu.Unlock()
				mu.Lock()
				cur--
				mu.Unlock()
				done(nil, 1)
			}
		}()
	}
	wg.Wait()
	if max > bound {
		t.Errorf("observed %d concurrent admitted ops, bound %d", max, bound)
	}
	st := r.Snapshot()
	if st.InFlight != 0 || st.Tenants[0].InFlight != 0 {
		t.Errorf("gauges nonzero after settle: %+v", st)
	}
	if st.Tenants[0].Ops == 0 {
		t.Error("no ops recorded")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(3 * time.Microsecond) // bucket <4µs
	}
	for i := 0; i < 10; i++ {
		h.Observe(900 * time.Microsecond) // bucket <1024µs
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if p50 := s.QuantileMicros(0.50); p50 != 4 {
		t.Errorf("p50 = %v, want 4", p50)
	}
	if p99 := s.QuantileMicros(0.99); p99 != 1024 {
		t.Errorf("p99 = %v, want 1024", p99)
	}
	if mean := s.MeanMicros(); mean < 90 || mean > 100 {
		t.Errorf("mean = %v", mean)
	}
	// Overflow clamps rather than panics.
	h.Observe(time.Hour)
	if got := h.Snapshot().Counts[histBuckets-1]; got != 1 {
		t.Errorf("overflow bucket = %d", got)
	}
}

func TestStatsEndpointServesJSON(t *testing.T) {
	r := NewRegistry(Quotas{})
	s, _ := r.Admit("acme")
	done, _ := s.Begin(wire.OpRead, 64)
	done(nil, 64)
	r.AddBatchStats(wire.BatchStats{Flushes: 2, Frames: 10})

	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	var st Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("stats endpoint returned bad JSON: %v", err)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "acme" || st.Tenants[0].BytesRead != 64 {
		t.Errorf("tenants = %+v", st.Tenants)
	}
	if len(st.Ops) != 1 || st.Ops[0].Op != "read" || st.Ops[0].Count != 1 {
		t.Errorf("ops = %+v", st.Ops)
	}
	if st.FramesPerFlush != 5 {
		t.Errorf("framesPerFlush = %v", st.FramesPerFlush)
	}
	s.Close()
}

// TestSnapshotReportsDataPlaneFDs: with a mapped segment in the process the
// snapshot must carry the descriptor-economy section, and it must retire
// with the segment — the section reflects live gauges, not history.
func TestSnapshotReportsDataPlaneFDs(t *testing.T) {
	if !shm.Supported() {
		t.Skip("shm unsupported on this platform")
	}
	r := NewRegistry(Quotas{})
	if dp := r.Snapshot().DataPlane; dp != nil {
		t.Fatalf("idle process reports data-plane fds: %+v", dp)
	}
	seg, err := shm.NewMPSC(1, 0, 0)
	if err != nil {
		t.Fatalf("shm.NewMPSC: %v", err)
	}
	dp := r.Snapshot().DataPlane
	if dp == nil || dp.Segments < 1 || dp.DoorbellFDs < 1 {
		t.Fatalf("snapshot missed the mapped segment: %+v", dp)
	}
	seg.Close()
	if dp := r.Snapshot().DataPlane; dp != nil {
		t.Fatalf("closed segment still reported: %+v", dp)
	}
}
