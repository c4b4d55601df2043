package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity bit mask of up to 1024 CPUs.
type cpuMask [16]uint64

// startMask is the affinity this process was started with.
var startMask = func() (m cpuMask) {
	syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m
}()

// pinChildren restricts the calling thread — and so every process it
// starts — to the highest-numbered CPU this process may use (one = true), or
// gives it back the full starting set. A serial-engine repetition runs one
// goroutine at a time; left to float between CPUs its wall time swings by
// tens of percent, pinned it repeats within about two. The caller must hold
// runtime.LockOSThread. Failure leaves the affinity as it was: the numbers
// are then noisier, not wrong.
func pinChildren(one bool) {
	m := startMask
	if one {
		for cpu := len(m)*64 - 1; cpu >= 0; cpu-- {
			if m[cpu/64]&(1<<(cpu%64)) != 0 {
				m = cpuMask{}
				m[cpu/64] = 1 << (cpu % 64)
				break
			}
		}
	}
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	runtime.Gosched()
}
