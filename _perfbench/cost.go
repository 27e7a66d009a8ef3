package main

import (
	"syscall"
	"time"
)

// cost is what one op took: its wall time, and the CPU time the whole
// process spent meanwhile, on every thread (the client, the service's
// handler, the lint workers, the garbage collector).
//
// The end-to-end metrics are CPU times. On a VM that shares its cores
// with other tenants, the hypervisor takes the vCPUs away for stretches
// (steal time). That stretches wall time by tens of percent from one
// minute to the next, while the kernel keeps stolen time out of a task's
// CPU time, so CPU time measures the program rather than the neighbours.
type cost struct{ wall, cpu time.Duration }

type stopwatch struct {
	t0  time.Time
	cpu time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) stop() cost {
	return cost{wall: time.Since(s.t0), cpu: processCPU() - s.cpu}
}

// processCPU is the user plus system time of the process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
