package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// hostSample is a snapshot of the process's cumulative host costs.
type hostSample struct {
	cpu          time.Duration // user+sys
	allocBytes   uint64
	allocObjects uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
}

var hostMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(hostMetrics)
	return hostSample{
		cpu:          time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:   hostMetrics[0].Value.Uint64(),
		allocObjects: hostMetrics[1].Value.Uint64(),
		gcCycles:     hostMetrics[2].Value.Uint64(),
		gcCPU:        hostMetrics[3].Value.Float64(),
	}
}

// peakRSSMB is the process's resident-set high-water mark in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Linux reports KiB
}

// hostRecord identifies the machine and build the numbers were taken on,
// since absolute host times differ across machines.
type hostRecord struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newHostRecord() hostRecord {
	return hostRecord{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, as the go tool
// stamps it when building inside a git work tree ("+dirty" for local
// changes), else "unknown".
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
