package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// fingerprint identifies the host a run set was measured on. Figures from
// different fingerprints are not comparable; the benchmark is meant to be
// compared only against the parent commit on the same host.
func fingerprint(workers int) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu_model":  cpuModel(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where the file or the field is absent).
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

// peakRSSMB returns the process's maximum resident set size in MiB, from
// getrusage (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
