package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The gated time metrics are CPU time of the benchmark's process tree:
// this process plus its live children, which are the proc backend's
// worker processes. On the reference box (a 2-vCPU VM) the hypervisor
// took the vCPUs away for up to 45% of a run, which moved the wall-clock
// time of identical work by up to 60% between runs; the kernel leaves
// that stolen time out of CPU time. CPU time still follows the host's
// speed, which calibrate.go scales out as far as it can. A change that
// only shortens waits, such as the proc coordinator blocked on its
// workers, or only adds parallelism, leaves CPU time as it was: the
// stamp's wall-clock figures and the traced run show those, the gate
// does not.

// cpuMeter reads the process tree's CPU time. kids is refreshed after
// set-up, when the proc workers exist; a child that exits takes its CPU
// time with it, so refresh only between measurements.
type cpuMeter struct {
	kids []int
}

func (m *cpuMeter) refresh() { m.kids = childPIDs() }

// now returns the CPU time used so far by this process and the children
// found at the last refresh.
func (m *cpuMeter) now() time.Duration {
	t := selfCPU()
	for _, pid := range m.kids {
		t += processCPU(pid)
	}
	return t
}

// selfCPU is CLOCK_PROCESS_CPUTIME_ID: the CPU time of all threads of
// this process, at nanosecond resolution.
func selfCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU sums the run time of every thread of process pid, from the
// first field of each thread's schedstat (nanoseconds); 0 once the
// process is gone.
func processCPU(pid int) time.Duration {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var t time.Duration
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, task.Name(), "schedstat"))
		if err != nil {
			continue
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		if ns, err := strconv.ParseInt(f[0], 10, 64); err == nil {
			t += time.Duration(ns)
		}
	}
	return t
}

// childPIDs lists the live child processes of this process.
func childPIDs() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := strconv.Itoa(os.Getpid())
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		b, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Field 2 is the command name in parentheses and may hold spaces;
		// the state and the parent pid follow the last ')'.
		s := string(b)
		f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(f) > 1 && f[1] == self {
			out = append(out, pid)
		}
	}
	return out
}
