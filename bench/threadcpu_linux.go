package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPUTime is the calling thread's CPU so far, from its CPU-time
// clock: getrusage's per-thread figures move in scheduler ticks, longer
// than a calibration loop.
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
