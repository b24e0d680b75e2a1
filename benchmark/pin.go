package main

import (
	"io"
	"os"
	"os/exec"
	"runtime"
)

// Placement. Where the kernel chooses, a client and its sentinel share a CPU
// in one run and sit on two in the next, and the whole run is two and a half
// times slower or faster for it. Inside the client, two Ps turn every
// goroutine handoff into a race between a local run-next and a steal by the
// other thread, which moved thread_mem's read_us by 30 % from one process to
// the next. And across two virtual CPUs every round trip waits for the host
// to have both scheduled at once, so whatever else the host is doing shows up
// in every number. None of this is the program's doing, so the benchmark
// removes it: the driver pins itself to one CPU with one P before it opens
// anything, and every process it spawns inherits that mask (and, starting
// with a one-CPU mask, runs with one P too). A round trip then costs
// context switches and code, which is what a change to the repository can
// move. This is also the machine the paper measured on: one processor, a
// single-threaded legacy application and its sentinel taking turns.
//
// For the workloads that run in one process, one thing more is pinned
// there: a child of this binary that spins at idle priority (SCHED_IDLE), so
// it runs only when nothing else wants the CPU and loses it the moment
// something does. It keeps the virtual CPU from halting. Without it every
// sleep of the program (fleet_cached sleeps through nine tenths of its run,
// waiting for lease revokes) is an exit to the host, and the wake-up a trip
// through the host's scheduler whose length is the host's business: with
// the spinner fleet_cached's write_us went from 1216-1227 us over three
// runs to 1129-1131, and its scans and bulk reads tightened as much. The
// workloads with a sentinel process keep the CPU busy between them and go
// without: their rings wait by sched_yield, which with a third runnable
// task on the CPU hands it to the spinner instead of the peer (procctl_shm
// reads took 100 us instead of 31).

// placement is where the run's processes were put; part of the host record.
type placement struct {
	CPU     int  `json:"cpu"`       // the one CPU everything runs on; -1 when unpinned
	Other   int  `json:"other_cpu"` // a second CPU the process may use, for the traced pass's two-CPU reads; -1 when there is none
	Pinned  bool `json:"pinned"`
	Spinner bool `json:"idle_spinner"` // an idle-priority spinner keeps CPU from halting
}

// pinDriver pins this process, and so its future children, to the first CPU
// it is allowed to run on, with a single P.
func pinDriver() placement {
	cpus := allowedCPUs()
	if len(cpus) == 0 {
		return placement{CPU: -1, Other: -1}
	}
	runtime.GOMAXPROCS(1)
	p := placement{CPU: cpus[0], Other: -1, Pinned: pinAllThreads(os.Getpid(), cpus[0])}
	if len(cpus) > 1 {
		p.Other = cpus[1]
	}
	return p
}

const idleSpinnerEnv = "AF_BENCHMARK_IDLE_SPINNER"

// idleSpinnerPID is the running spinner, 0 when there is none. It is a child
// of the driver but no part of the program, so the RSS and CPU accounting
// leave it out.
var idleSpinnerPID int

// maybeIdleSpinner turns this process into the spinner when it was started
// as one: it drops to idle priority, says so with one byte on standard
// output, and spins until it is killed. It never returns in that case.
func maybeIdleSpinner() {
	if os.Getenv(idleSpinnerEnv) == "" {
		return
	}
	runtime.LockOSThread() // the priority belongs to the thread
	if !setIdlePriority() {
		os.Exit(1) // at normal priority the spinner would take half the CPU
	}
	os.Stdout.Write([]byte{1})
	for {
		spin()
	}
}

// startIdleSpinner starts the spinner on the CPU the driver is pinned to and
// returns the function that stops it and waits for it. Where the platform
// has no idle priority the run goes without, and started says so.
func startIdleSpinner() (stop func(), started bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), idleSpinnerEnv+"=1")
	dieWithParent(cmd)
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, false, err
	}
	if err := cmd.Start(); err != nil {
		return nil, false, err
	}
	var ready [1]byte
	if _, err := io.ReadFull(out, ready[:]); err != nil {
		cmd.Wait() // it exited: no idle priority here
		return func() {}, false, nil
	}
	idleSpinnerPID = cmd.Process.Pid
	return func() {
		idleSpinnerPID = 0
		cmd.Process.Kill()
		cmd.Wait()
	}, true, nil
}
