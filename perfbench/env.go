package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSeconds returns the process CPU time (user+sys) from getrusage.
// Throughput and set-up are counted on this clock: on a shared 2-vCPU
// VM the hypervisor steals a varying share of wall time, which the
// process CPU clock does not see.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return timevalSeconds(ru.Utime) + timevalSeconds(ru.Stime)
}

func timevalSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct {
	total, steal uint64
}

// parseProcStat reads the aggregate cpu line of /proc/stat: user nice
// system idle iowait irq softirq steal [guest guest_nice]. Guest time is
// already included in user and nice, so it is left out of the total.
func parseProcStat(r io.Reader) (cpuStat, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		if len(fields) < 9 {
			return cpuStat{}, fmt.Errorf("/proc/stat: short cpu line %q", sc.Text())
		}
		var st cpuStat
		for i, f := range fields[1:9] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return cpuStat{}, fmt.Errorf("/proc/stat: cpu field %d: %w", i+1, err)
			}
			st.total += v
			if i == 7 {
				st.steal = v
			}
		}
		return st, nil
	}
	if err := sc.Err(); err != nil {
		return cpuStat{}, err
	}
	return cpuStat{}, errors.New("/proc/stat: no aggregate cpu line")
}

// readProcStat samples /proc/stat; on hosts without it the zero value
// makes stealShare report 0.
func readProcStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	st, err := parseProcStat(bytes.NewReader(data))
	if err != nil {
		return cpuStat{}
	}
	return st
}

// stealShare is the host-wide share of CPU time the hypervisor stole
// between two samples.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// parseVmHWM returns the peak resident set in MiB from the VmHWM line
// of /proc/self/status.
func parseVmHWM(r io.Reader) (float64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("status: malformed %q", line)
		}
		kb, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %q: %w", line, err)
		}
		return float64(kb) / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("status: no VmHWM line")
}

func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// commit names the source revision, as run.sh found it in the checkout.
func commit() string {
	if rev := os.Getenv("PERFBENCH_COMMIT"); rev != "" {
		return rev
	}
	return "unknown"
}

// clock marks one phase boundary on every clock the benchmark reads.
type clock struct {
	wall time.Time
	cpu  float64
	stat cpuStat
}

func now() clock {
	return clock{wall: time.Now(), cpu: cpuSeconds(), stat: readProcStat()}
}

// phase is the difference between two clock marks.
type phase struct {
	WallS  float64 `json:"wall_s"`
	CPUS   float64 `json:"cpu_s"`
	StealS float64 `json:"steal_share"`
}

func since(a clock) phase {
	b := now()
	return phase{
		WallS:  b.wall.Sub(a.wall).Seconds(),
		CPUS:   b.cpu - a.cpu,
		StealS: stealShare(a.stat, b.stat),
	}
}

// memMark is the allocator state at a phase boundary.
type memMark struct {
	ms    runtime.MemStats
	gcCPU float64
}

var gcCPUSample = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	metrics.Read(gcCPUSample)
	if gcCPUSample[0].Value.Kind() == metrics.KindFloat64 {
		m.gcCPU = gcCPUSample[0].Value.Float64()
	}
	return m
}

// memDelta is the allocator activity between two marks.
type memDelta struct {
	Mallocs uint64  `json:"mallocs"`
	Bytes   uint64  `json:"bytes"`
	NumGC   uint32  `json:"num_gc"`
	GCCPUS  float64 `json:"gc_cpu_s"`
	HeapB   uint64  `json:"heap_alloc_bytes"`
}

func memSince(a memMark) memDelta {
	b := markMem()
	return memDelta{
		Mallocs: b.ms.Mallocs - a.ms.Mallocs,
		Bytes:   b.ms.TotalAlloc - a.ms.TotalAlloc,
		NumGC:   b.ms.NumGC - a.ms.NumGC,
		GCCPUS:  b.gcCPU - a.gcCPU,
		HeapB:   b.ms.HeapAlloc,
	}
}
