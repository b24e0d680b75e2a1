package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/benchmark/measure"
)

// environment is the record of where a run happened. It is printed with
// every run so a number is never read without its host.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Scratch    string `json:"scratch"`

	// Placement is where a run put its processes; absent from the record of
	// a process that only starts runs (-aa, -all), each of which places itself.
	Placement *placement `json:"placement,omitempty"`
}

func captureEnvironment(scratch string) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown", // a checkout that is not a git repository has none
		Scratch:    scratch,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				e.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				e.Commit += "+modified"
			}
		}
	}
	return e
}

// childPIDs returns the live children of this process that belong to the
// program, the sentinels among them, by scanning /proc for our PID in the
// parent field.
func childPIDs() []int {
	self := os.Getpid()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	var out []int
	for _, path := range stats {
		if pid, ppid, _, ok := readProcStat(path); ok && ppid == self && pid != idleSpinnerPID {
			out = append(out, pid)
		}
	}
	return out
}

// readProcStat parses the fields of /proc/PID/stat the benchmark needs: the
// process, its parent, and its user+system CPU time in clock ticks.
func readProcStat(path string) (pid, ppid int, ticks int64, ok bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, false
	}
	s := string(b)
	// The command name is parenthesised and may contain spaces; the fixed
	// fields start after the last ')'.
	end := strings.LastIndexByte(s, ')')
	if end < 0 {
		return 0, 0, 0, false
	}
	pid, _ = strconv.Atoi(strings.TrimSpace(s[:strings.IndexByte(s, '(')]))
	f := strings.Fields(s[end+1:])
	if len(f) < 13 {
		return 0, 0, 0, false
	}
	ppid, _ = strconv.Atoi(f[1]) // field 4 of the file
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return pid, ppid, ut + st, true
}

// peakRSSMiB is the high-water resident set of this process plus its live
// children, in MiB.
func peakRSSMiB() float64 {
	kb := vmHWM("/proc/self/status")
	for _, pid := range childPIDs() {
		kb += vmHWM("/proc/" + strconv.Itoa(pid) + "/status")
	}
	return float64(kb) / 1024
}

func vmHWM(path string) int64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// cpuSeconds is the CPU time consumed so far by this process (exactly, from
// getrusage) and by its live children (from /proc, in 10 ms ticks — children
// are only in RUSAGE_CHILDREN once reaped, and the sentinels are alive).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
	for _, pid := range childPIDs() {
		if _, _, ticks, ok := readProcStat("/proc/" + strconv.Itoa(pid) + "/stat"); ok {
			total += float64(ticks) / 100 // USER_HZ is 100 on every Linux ABI Go supports
		}
	}
	return total
}

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

// Runs remember the state they found the host in (measure.Host.State) and
// how long they waited for it, in a file beside the build, so that a later
// run can tell a host that is slow today from a host that is slow this
// minute, and wait the minute out.
const (
	hostMemoryFile = "host-states" // in -dir: a reading in ns and a wait in ms per line, the latest last
	hostMemoryRuns = 20

	// A run waits for the host's usual state for at most maxHostWait, and
	// twenty consecutive runs for at most hostWaitBudget between them: a
	// hundred and some runs have to fit into an hour whatever the host does.
	maxHostWait    = 40 * time.Second
	hostWaitBudget = 120 * time.Second
)

// hostMemory is what the last runs in this directory left behind.
type hostMemory struct {
	states []float64
	waits  []time.Duration
}

func loadHostMemory(dir string) (m hostMemory) {
	b, _ := os.ReadFile(filepath.Join(dir, hostMemoryFile)) // no file yet: nothing remembered
	for _, line := range strings.Split(string(b), "\n") {
		var state float64
		var ms int64
		if n, _ := fmt.Sscan(line, &state, &ms); n == 2 && state > 0 && ms >= 0 {
			m.states = append(m.states, state)
			m.waits = append(m.waits, time.Duration(ms)*time.Millisecond)
		}
	}
	return m
}

// usual is the state the host was mostly in, 0 while fewer than three runs
// have reported one.
func (m hostMemory) usual() float64 {
	if len(m.states) < 3 {
		return 0
	}
	return measure.Median(m.states)
}

// allowance is how long the next run may wait.
func (m hostMemory) allowance() time.Duration {
	left := hostWaitBudget
	for _, w := range m.waits {
		left -= w
	}
	return max(0, min(left, maxHostWait))
}

// remember adds a run's state and wait and writes the file.
func (m hostMemory) remember(dir string, state float64, waited time.Duration) error {
	m.states, m.waits = append(m.states, state), append(m.waits, waited)
	var b []byte
	for i := max(0, len(m.states)-hostMemoryRuns); i < len(m.states); i++ {
		b = fmt.Appendf(b, "%.0f %d\n", m.states[i], m.waits[i].Milliseconds())
	}
	return os.WriteFile(filepath.Join(dir, hostMemoryFile), b, 0o644)
}

// hostWait is one run's waiting for the host: before it starts, and again
// before any segment that would start in another state than the usual one.
type hostWait struct {
	usual  float64       // 0: nothing to wait for
	left   time.Duration // of this run's allowance
	waited time.Duration
}

// settle waits unless the latest readings of the run's own log show the host
// calm in its usual state (with no log yet, a spell of fresh readings has
// to). A nil hostWait, of a run that does not wait, does nothing.
func (w *hostWait) settle(log *measure.Host) {
	if w == nil || w.usual == 0 || w.left <= 0 {
		return
	}
	if log != nil && log.Calm(w.usual, 25) {
		return
	}
	d := measure.Settle(w.usual, w.left)
	w.left -= d
	w.waited += d
}
