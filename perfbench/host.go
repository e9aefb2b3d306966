package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the CPU time (user and system) this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSample is the machine's cumulative steal and total CPU ticks.
type stealSample struct{ steal, total uint64 }

// readSteal samples /proc/stat; zero when unavailable.
func readSteal() stealSample {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealSample{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var s stealSample
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already inside user
			s.total += n
		}
		if i == 7 {
			s.steal = n
		}
	}
	return s
}

// since is the share of CPU time the hypervisor stole between two samples:
// a run measured while the host was contended reads high.
func (s stealSample) since(t stealSample) float64 {
	if s.total <= t.total {
		return 0
	}
	return float64(s.steal-t.steal) / float64(s.total-t.total)
}
