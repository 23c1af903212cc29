package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time of process pid, read from
// outside the process.
func procCPU(pid int) (time.Duration, error) {
	body, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its closing
	// parenthesis start at field 3 (state). utime and stime are fields 14
	// and 15.
	s := string(body)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// peakRSSMB returns the peak resident set (VmHWM) of pid in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// heapStats is a snapshot of this process's Go runtime counters.
type heapStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

var heapSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readHeap() heapStats {
	s := make([]metrics.Sample, len(heapSamples))
	copy(s, heapSamples)
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return heapStats{allocBytes: u(0), allocObjects: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// opCost is what one op cost this process.
type opCost struct {
	wall, cpu              time.Duration
	allocBytes, allocCount uint64
	gcCycles               uint64
}

// costMeter measures one op in this process.
type costMeter struct {
	t0   time.Time
	cpu0 time.Duration
	h0   heapStats
}

func startCost() costMeter {
	return costMeter{t0: time.Now(), cpu0: selfCPU(), h0: readHeap()}
}

func (m costMeter) stop() opCost {
	wall := time.Since(m.t0)
	cpu := selfCPU() - m.cpu0
	h := readHeap()
	return opCost{
		wall: wall, cpu: cpu,
		allocBytes: h.allocBytes - m.h0.allocBytes,
		allocCount: h.allocObjects - m.h0.allocObjects,
		gcCycles:   h.gcCycles - m.h0.gcCycles,
	}
}

// costSeries collects the cost of every verified op.
type costSeries struct {
	wallMS, cpuMS, allocMB, mallocs, gcCycles []float64
}

func (c *costSeries) add(o opCost) {
	c.wallMS = append(c.wallMS, ms(o.wall))
	c.cpuMS = append(c.cpuMS, ms(o.cpu))
	c.allocMB = append(c.allocMB, float64(o.allocBytes)/(1<<20))
	c.mallocs = append(c.mallocs, float64(o.allocCount))
	c.gcCycles = append(c.gcCycles, float64(o.gcCycles))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// provenance identifies what produced a result document.
func provenance(root string, seed int64) map[string]any {
	rev := "none"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"bench_version": benchVersion,
		"git_revision":  rev,
		"source_sha256": sourceDigest(root),
		"go_version":    runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"seed":          seed,
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// sourceDigest hashes every Go source and module file of the checkout, so
// a result names its program even where the checkout is not a git
// repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "error: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
