//go:build !linux

package main

import "os/exec"

// Without sched_setaffinity the benchmark runs unpinned and says so in its
// host record.
func allowedCPUs() []int              { return nil }
func pinAllThreads(pid, cpu int) bool { return false }

// Without SCHED_IDLE the benchmark runs without its idle spinner.
func setIdlePriority() bool   { return false }
func dieWithParent(*exec.Cmd) {}
