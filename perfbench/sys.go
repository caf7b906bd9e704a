package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func errorf(format string, args ...any) error { return fmt.Errorf("perfbench: "+format, args...) }

// provenance identifies what produced a result, so a faster number cannot
// hide a changed host, program or input.
type provenance struct {
	// Source is the SHA-256 of every .go and go.mod file under the checkout
	// (the checkout the benchmark runs in is not a git repository, so this
	// content hash stands in for the commit).
	Source     string `json:"source_sha256"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Traced     bool   `json:"traced"`
	Seconds    int    `json:"seconds"`
}

func newProvenance(root, workload string, seed uint64, seconds int, traced bool) (provenance, error) {
	src, err := sourceDigest(root)
	if err != nil {
		return provenance{}, err
	}
	return provenance{
		Source: src, CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Workload: workload, Seed: seed, Traced: traced, Seconds: seconds,
	}, nil
}

// sourceDigest hashes the Go sources under root in path order, skipping
// dot-directories (the build directory among them).
func sourceDigest(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("perfbench: hash sources: %w", err)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "", fmt.Errorf("perfbench: hash sources: %w", err)
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// cpuModel reads the kernel's processor description ("unknown" where
// there is none).
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

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// allocBytes returns the cumulative heap bytes allocated by the process.
func allocBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// clock reads the wall clock together with the host's busy and stolen
// CPU ticks. On a shared VM the hypervisor runs other guests on a vCPU
// that wants to run ("steal" in /proc/stat); that time belongs to no
// program, so the time metrics leave out its share of every interval.
type clock struct {
	at           time.Time
	busy, stolen int64 // ticks summed over all CPUs
}

func readClock() clock {
	c := clock{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c // no steal accounting: nothing is left out
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return c
	}
	var t [8]int64 // user nice system idle iowait irq softirq steal
	for i := range t {
		t[i], _ = strconv.ParseInt(f[i+1], 10, 64)
	}
	c.busy = t[0] + t[1] + t[2] + t[5] + t[6]
	c.stolen = t[7]
	return c
}

// userHZ is the unit of the tick counts in /proc/stat (USER_HZ).
const userHZ = 100

// since returns the wall time from c to now and the part of it stolen:
// the wall time scaled by the stolen share of the ticks the CPUs wanted to
// run, capped by the CPU time the hypervisor stole over the interval. The
// share alone would also excuse the program's own waits (sleeps, fsyncs,
// lock waits) whenever other work kept the CPUs wanted meanwhile; no
// thread loses more wall time than the steal that accrued, so the cap
// bounds that excuse, and an idle host, which accrues no steal, excuses
// nothing.
func (c clock) since() (wall, stolen time.Duration) {
	n := readClock()
	wall = n.at.Sub(c.at)
	if ds, db := n.stolen-c.stolen, n.busy-c.busy; ds > 0 {
		stolen = min(time.Duration(float64(wall)*float64(ds)/float64(ds+db)), time.Duration(ds)*time.Second/userHZ)
	}
	return wall, stolen
}

// ran returns the wall time from c to now less its stolen part.
func (c clock) ran() time.Duration {
	wall, stolen := c.since()
	return wall - stolen
}

// meter snapshots the clock, CPU time and allocated bytes, so a unit of
// work can be charged exactly what it consumed.
type meter struct {
	clock
	cpu   time.Duration
	alloc uint64
}

func readMeter() meter { return meter{clock: readClock(), cpu: cpuTime(), alloc: allocBytes()} }

// usage is what was consumed between two meter readings.
type usage struct {
	wall, stolen, cpu time.Duration
	alloc             uint64
}

func (m meter) since() usage {
	wall, stolen := m.clock.since()
	return usage{wall: wall, stolen: stolen, cpu: cpuTime() - m.cpu, alloc: allocBytes() - m.alloc}
}

// ran is the wall time less its stolen part: what every time metric uses.
func (u usage) ran() time.Duration { return u.wall - u.stolen }

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.stolen += o.stolen
	u.cpu += o.cpu
	u.alloc += o.alloc
}
