package main

import (
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is a host snapshot taken at a phase boundary, and only there, so the
// phase itself runs with nothing installed.
type usage struct {
	at  time.Time
	cpu time.Duration // user+sys of the whole process

	allocBytes, mallocs, gcCycles, heapGoal uint64
	gcCPU                                   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/goal:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	metrics.Read(runtimeSamples)
	return usage{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: runtimeSamples[0].Value.Uint64(),
		mallocs:    runtimeSamples[1].Value.Uint64(),
		gcCycles:   runtimeSamples[2].Value.Uint64(),
		heapGoal:   runtimeSamples[3].Value.Uint64(),
		gcCPU:      runtimeSamples[4].Value.Float64(),
	}
}

// percentile is the nearest-rank pth percentile of samples (sorted in place).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(samples) {
		rank = len(samples)
	}
	return samples[rank-1]
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// peakRSSMB reads the process's peak resident set (VmHWM). getrusage's
// ru_maxrss is not used: it carries over the high-water mark of whatever
// process forked this one before the exec, such as the shell or a runner.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return float64(kb) * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
