package loglock

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestAppendAndContents(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "app.log"))
	if err := m.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append([]byte("second\n")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Contents()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first\nsecond\n" {
		t.Errorf("Contents = %q", got)
	}
}

func TestContentsMissingFile(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "never.log"))
	got, err := m.Contents()
	if err != nil || got != nil {
		t.Errorf("Contents = (%q, %v), want (nil, nil)", got, err)
	}
}

func TestRecords(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "r.log"))
	for i := 0; i < 3; i++ {
		if err := m.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := m.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || string(recs[0]) != "rec-0" || string(recs[2]) != "rec-2" {
		t.Errorf("Records = %q", recs)
	}
}

func TestConcurrentAppendsNeverInterleave(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "conc.log"))
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				record := fmt.Sprintf("writer-%d-entry-%d", w, i)
				if err := m.Append([]byte(record)); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	recs, err := m.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("got %d records, want %d", len(recs), writers*perWriter)
	}
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		line := string(r)
		if !strings.HasPrefix(line, "writer-") || strings.Count(line, "writer-") != 1 {
			t.Fatalf("interleaved record: %q", line)
		}
		if seen[line] {
			t.Fatalf("duplicate record: %q", line)
		}
		seen[line] = true
	}
}

func TestMultipleManagersSameFile(t *testing.T) {
	// Two managers simulate sentinels in different processes synchronizing
	// on the same log through the lock file.
	path := filepath.Join(t.TempDir(), "shared.log")
	m1 := New(path)
	m2 := New(path)
	var wg sync.WaitGroup
	for i, m := range []*Manager{m1, m2} {
		i, m := i, m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := m.Append([]byte(fmt.Sprintf("m%d-%d", i, j))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	recs, err := m1.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 40 {
		t.Errorf("got %d records, want 40", len(recs))
	}
}

func TestCompactKeepsTail(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "c.log"))
	for i := 0; i < 10; i++ {
		m.Append([]byte(fmt.Sprintf("entry-%d", i)))
	}
	if err := m.Compact(3); err != nil {
		t.Fatal(err)
	}
	recs, err := m.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if string(recs[0]) != "entry-7" || string(recs[2]) != "entry-9" {
		t.Errorf("kept = %q", recs)
	}
}

func TestCompactNoOpWhenSmall(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "s.log"))
	m.Append([]byte("only"))
	if err := m.Compact(5); err != nil {
		t.Fatal(err)
	}
	recs, _ := m.Records()
	if len(recs) != 1 {
		t.Errorf("records = %q", recs)
	}
}

func TestCompactMissingFile(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "none.log"))
	if err := m.Compact(3); err != nil {
		t.Errorf("Compact on missing log: %v", err)
	}
}

func TestCompactRejectsNegativeKeep(t *testing.T) {
	m := New(filepath.Join(t.TempDir(), "n.log"))
	if err := m.Compact(-1); err == nil {
		t.Error("Compact(-1) succeeded")
	}
}
