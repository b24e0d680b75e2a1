// Package leaktest holds the goroutine leak check the fault-injection
// suites share. It is a package of its own, apart from faultinject, because
// it takes a testing.TB: only test binaries may link the testing package.
package leaktest

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// Check snapshots the goroutine count and registers a cleanup that fails
// the test if the count has not returned to the baseline by test end
// (polling briefly, since legitimate teardown is asynchronous). Call it
// FIRST in a test whose failure mode is an orphaned waiter or receive loop.
//
// It compares counts, not goroutine identities, so unrelated parallel tests
// can confuse it — keep leak-checked tests out of t.Parallel().
func Check(t testing.TB) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		var now int
		for {
			now = runtime.NumGoroutine()
			if now <= before {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		var buf bytes.Buffer
		pprof.Lookup("goroutine").WriteTo(&buf, 1)
		t.Errorf("goroutine leak: %d before, %d after\n%s", before, now, buf.String())
	})
}
