//go:build race

package core_test

// raceEnabled reports a -race build, in which sync.Pool drops a share of
// what is put back on purpose, so pooled paths allocate now and then.
const raceEnabled = true
