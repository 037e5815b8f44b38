package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase is what one measured closed-loop phase observed.
type phase struct {
	lat       []float64 // step latency in ms, one per attempted step
	attempted int64
	failed    int64
	errs      []string

	wall       time.Duration
	cpu        time.Duration // process user+sys over the phase
	allocBytes uint64
	gcs        uint32
	rssMB      float64 // peak resident set after the phase
	steal      float64 // share of the host's CPU time stolen by the hypervisor

	layers layers // traced phases only
}

func (p *phase) errorf(format string, args ...any) {
	if len(p.errs) < 20 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) errorRatio() float64 {
	if p.attempted == 0 {
		return 0
	}
	return float64(p.failed) / float64(p.attempted)
}

// meter brackets a measured phase with wall clock, process CPU time
// and heap accounting.
type meter struct {
	start        time.Time
	cpu          time.Duration
	mem          runtime.MemStats
	steal, total uint64
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.cpu = processCPU()
	m.steal, m.total = hostCPU()
	m.start = time.Now()
	return m
}

func (m *meter) stop(p *phase) {
	p.wall = time.Since(m.start)
	p.cpu = processCPU() - m.cpu
	if steal, total := hostCPU(); total > m.total {
		p.steal = float64(steal-m.steal) / float64(total-m.total)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - m.mem.TotalAlloc
	p.gcs = after.NumGC - m.mem.NumGC
}

// processCPU is the user+system time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU returns the machine's stolen and total CPU ticks from
// /proc/stat (zeros where it is unavailable). Steal is time the
// hypervisor gave to other guests: the host drift a run cannot control.
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// quantile is the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond is how many of n samples lie above the nearest-rank
// q-quantile: the guide's "at least ten samples beyond it" test.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(q*float64(n)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// subseed derives episode e's independent input seed (splitmix64 over
// the run seed).
func subseed(seed int64, e int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(e)*0x94d049bb133111eb + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// validFreqs reports whether a decision is n finite frequencies in
// [0, fmax].
func validFreqs(f []float64, n int, fmax float64) bool {
	if len(f) != n {
		return false
	}
	for _, v := range f {
		if math.IsNaN(v) || v < 0 || v > fmax {
			return false
		}
	}
	return true
}

// sameBits reports bit-identical decisions.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
