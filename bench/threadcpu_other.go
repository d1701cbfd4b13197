//go:build !linux

package main

import "time"

// threadCPUTime has no per-thread clock to read here and falls back to
// the process's CPU time; the benchmark's figures are taken on Linux.
func threadCPUTime() time.Duration { return cpuTime() }
