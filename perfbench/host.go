package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// calibrate times a fixed single-threaded floating-point loop and returns
// the median of five runs in milliseconds. It depends on nothing in the
// repository, so it moves only when the host does: a reader can tell a
// slower box from a slower commit.
func calibrate() float64 {
	buf := make([]float64, 1<<13)
	for i := range buf {
		buf[i] = float64(i%97) * 1e-3
	}
	var sink float64
	runs := make([]float64, 5)
	for r := range runs {
		t0 := time.Now()
		acc := 0.0
		for pass := 0; pass < 400; pass++ {
			for i := 1; i < len(buf); i++ {
				acc = acc*0.999 + buf[i]*buf[i-1]
			}
		}
		sink += acc
		runs[r] = float64(time.Since(t0)) / 1e6
	}
	if sink == 42 { // keeps the loop from being optimized away
		println()
	}
	return median(runs)
}

// cpuTicks returns the machine's stolen and total CPU time in clock
// ticks from /proc/stat (zeros where it is unavailable). Stolen time is
// time the hypervisor ran something else while this machine's virtual
// CPUs had work.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealPct is the share of CPU time stolen between two cpuTicks
// readings, in percent.
func stealPct(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return 100 * float64(steal1-steal0) / float64(total1-total0)
}

// stealMeter measures the stolen share of CPU time over consecutive
// windows of a run.
type stealMeter struct{ steal, total uint64 }

func newStealMeter() *stealMeter {
	m := &stealMeter{}
	m.steal, m.total = cpuTicks()
	return m
}

// lap returns the stolen percentage since the previous lap (or the
// start) and begins the next window.
func (m *stealMeter) lap() float64 {
	s, t := cpuTicks()
	pct := stealPct(m.steal, m.total, s, t)
	m.steal, m.total = s, t
	return pct
}

// quieter returns the indices of the half of the windows, rounded up,
// during which the least CPU time was stolen. The end-to-end metrics are
// taken over these windows: on a shared virtual machine the hypervisor
// steals time in bursts, and a burst slows every layer at once.
func quieter(steal []float64) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	return idx[:(len(idx)+1)/2]
}

// fmtSteal renders per-window steal percentages for a log line.
func fmtSteal(steal []float64) string {
	parts := make([]string, len(steal))
	for i, v := range steal {
		parts[i] = strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MiB,
// or 0 if /proc is unavailable.
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
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resetPeakRSS collects garbage, returns free memory to the OS and
// restarts the kernel's peak-RSS count, so the peak read later covers
// only what ran after the call. The repeated set-ups that measure
// setup_s would otherwise set the peak.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Without /proc the peak simply keeps counting from process start.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// goStats is a snapshot of the Go runtime counters the traced run
// reports.
type goStats struct {
	mallocs  uint64
	gcCPU    float64 // seconds
	totalCPU float64 // seconds
}

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSamples))
	copy(s, goSamples)
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = s[2].Value.Float64()
	}
	return g
}

// heapWatch samples the live heap every 50 ms until stopped and keeps
// the peak.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// end stops sampling and returns the peak live heap in MiB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

func init() { runtime.GOMAXPROCS(runtime.NumCPU()) }
