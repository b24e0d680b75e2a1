package main

import (
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuSet is a kernel CPU mask for up to 1024 CPUs.
type cpuSet [16]uint64

// allowedCPUs returns the CPUs this process may run on, in ascending order.
func allowedCPUs() []int {
	var set cpuSet
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinAllThreads restricts every existing thread of process pid to cpu.
// Threads created later inherit the mask of the thread that creates them,
// so after this call the whole process stays on cpu. It reports whether
// every thread was moved.
func pinAllThreads(pid, cpu int) bool {
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/[0-9]*")
	ok := len(tasks) > 0
	for _, t := range tasks {
		tid, err := strconv.Atoi(filepath.Base(t))
		if err != nil {
			continue
		}
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set)))
		if errno != 0 && errno != syscall.ESRCH { // a thread may exit between the listing and the call
			ok = false
		}
	}
	return ok
}

// setIdlePriority moves the calling thread to SCHED_IDLE: it then runs only
// when no thread of any other class is runnable on its CPU.
func setIdlePriority() bool {
	const schedIdle = 5
	var param struct{ priority int32 } // struct sched_param; must be 0 for SCHED_IDLE
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	return errno == 0
}

// dieWithParent has the kernel kill cmd's process when the driver dies
// without stopping it.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
