package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"proxcensus/internal/stats"
)

// probe is one reading of every process-wide counter the benchmark
// reports as a delta over the measured window. It is taken exactly
// twice per run (ReadMemStats stops the world).
type probe struct {
	at       time.Time
	userCPU  time.Duration
	sysCPU   time.Duration
	alloc    uint64 // runtime.MemStats.TotalAlloc
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	wchar    int64 // /proc/self/io: bytes passed to write syscalls
	syscr    int64
	syscw    int64
}

func takeProbe() (probe, error) {
	var p probe
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.alloc, p.mallocs = ms.TotalAlloc, ms.Mallocs
	p.gcCycles, p.gcPause = ms.NumGC, time.Duration(ms.PauseTotalNs)
	io, err := readProcFields("/proc/self/io")
	if err != nil {
		return p, err
	}
	p.wchar, p.syscr, p.syscw = io["wchar"], io["syscr"], io["syscw"]
	p.userCPU, p.sysCPU, err = cpuTimes()
	p.at = time.Now()
	return p, err
}

// cpuTimes returns the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration, err error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano()), nil
}

// readProcFields parses a "key: value [unit]" file under /proc into its
// integer fields; lines whose value is not an integer are skipped.
func readProcFields(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(b), "\n") {
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		if v, err := strconv.ParseInt(fields[0], 10, 64); err == nil {
			out[key] = v
		}
	}
	return out, nil
}

// rssPeakMB is the process's resident-set high-water mark.
func rssPeakMB() (float64, error) {
	st, err := readProcFields("/proc/self/status")
	if err != nil {
		return 0, err
	}
	return float64(st["VmHWM"]) / 1024, nil
}

// kernelRelease names the running kernel for the env block.
func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// quantile is stats.Quantile; an empty sample reads NaN, which emit
// refuses to report.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
