package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func affinity(tid int) (cpuMask, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return m, errno
	}
	return m, nil
}

// pinToOneCPU confines every thread of this process, and with them every
// daemon it starts, to one CPU — the highest-numbered one it is allowed,
// since interrupts and other people's processes favour CPU 0.
//
// On a small virtual machine this is what makes wall-clock numbers
// repeat. Client and daemon run in lock-step (closed loop, window 1), so
// on two CPUs each leaves its CPU idle while the other works, the idle
// vCPU halts, and every request pays a cross-CPU wake-up whose cost is
// the hypervisor's scheduling latency: measured on the 2-core reference
// box, http-mem ran 9.5k–14.5k events/s unpinned and 23k–26k pinned.
// One CPU never idles during a round, so the host stays out of the
// numbers. The cost is that reader and writer requests interleave
// instead of running in parallel; the daemon sees GOMAXPROCS=1.
func pinToOneCPU() (int, error) {
	allowed, err := affinity(0)
	if err != nil {
		return 0, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return 0, fmt.Errorf("empty CPU affinity mask")
	}
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	// Threads started later inherit the mask of the thread that creates
	// them, so pinning the ones that exist now pins the process.
	// A second pass catches a thread an unpinned one created meanwhile.
	runtime.GOMAXPROCS(1)
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return 0, err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one)))
			if errno != 0 && errno != syscall.ESRCH { // a thread that just exited is fine
				return 0, fmt.Errorf("sched_setaffinity(%d): %w", tid, errno)
			}
		}
	}
	return cpu, nil
}
