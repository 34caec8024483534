package main

import (
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// metric is one reported number with its unit, as the result line
// carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// median returns the median of xs (the mean of the middle pair for an
// even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// midmean is the mean of the values between the quartiles (all of them
// below four values).
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) / 4
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is the highest percentile a sample of n supports: the
// one with at least ten samples beyond it. Below twenty samples no
// percentile above the median qualifies, and the maximum is reported.
func tailQuantile(n int) float64 {
	if n < 20 {
		return 1
	}
	return 1 - 10/float64(n)
}

// ratio is a/b, or 0 when there is nothing to divide by (a layer a
// tiny-budget run never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// heapSampler polls the heap every few milliseconds without stopping the
// world and keeps the peak of each lap. The figure is the heap the
// program's objects occupy, garbage not yet collected included.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak atomic.Uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			for {
				cur := h.peak.Load()
				if v <= cur || h.peak.CompareAndSwap(cur, v) {
					break
				}
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

// lapMB returns the peak since the previous lap in MiB and starts a new
// lap.
func (h *heapSampler) lapMB() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// cpuTime is the CPU time the process has used so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine's CPU accounting from /proc/stat, in clock
// ticks: time stolen by the hypervisor for other guests, and all time.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the aggregate cpu line of /proc/stat; ok is false
// where there is none.
func readCPUStat() (st cpuStat, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return st, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user and nice.
	if len(fields) < 9 || fields[0] != "cpu" {
		return st, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuStat{}, false
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, true
}

// stealMeter measures the share of the machine's CPU time stolen by the
// hypervisor over an interval. On a shared virtual machine that share
// swings from nothing to a third for minutes at a time, and every
// process on the guest slows by that share; the benchmark takes it out
// of its time figures so that they measure the code, not the neighbours.
type stealMeter struct {
	start cpuStat
	ok    bool
}

func startSteal() stealMeter {
	st, ok := readCPUStat()
	return stealMeter{st, ok}
}

// share returns the stolen share of CPU time since start, 0 where the
// accounting is unavailable.
func (m stealMeter) share() float64 {
	end, ok := readCPUStat()
	if !m.ok || !ok || end.total <= m.start.total {
		return 0
	}
	return float64(end.steal-m.start.steal) / float64(end.total-m.start.total)
}
