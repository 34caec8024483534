package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/load"
	"repro/internal/problems"
	"repro/internal/solutions"
)

// The load workload: a closed loop on the real kernel. Clients = nproc,
// no think time, every mechanism on bounded-buffer (every operation
// changes the buffer and may wait) and readers-priority (90% reads).
// Serving numbers come from untraced runs of a fixed duration;
// correctness comes from traced runs of a fixed operation count, judged
// by the problem oracle inside load.Run.

var loadProblems = []string{problems.NameBoundedBuffer, problems.NameReadersPriority}

type pairing struct{ mech, problem string }

func (p pairing) String() string { return p.mech + "/" + p.problem }

func loadPairings() []pairing {
	var out []pairing
	for _, s := range solutions.All() {
		for _, problem := range loadProblems {
			out = append(out, pairing{s.Mechanism, problem})
		}
	}
	return out
}

// trafficSeed derives a pairing's traffic seed from the benchmark seed,
// the round and the pairing, so every run of one seed offers the same
// class sequence.
func trafficSeed(seed int64, round, pairing int) int64 {
	return seed*1000003 + int64(round)*101 + int64(pairing) + 1
}

func loadConfig(p pairing, seed int64) load.Config {
	return load.Config{
		Mechanism: p.mech,
		Problem:   p.problem,
		Arrival:   load.ArrivalClosed,
		Clients:   runtime.NumCPU(),
		Seed:      seed,
	}
}

// serve runs one untraced closed-loop measurement of duration d.
func serve(p pairing, seed int64, d time.Duration) (*load.Result, error) {
	cfg := loadConfig(p, seed)
	cfg.Duration = d
	res, err := load.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return res, nil
}

// judged is one traced, fixed-size load run: its wall time splits into
// the run on the kernel clock and the judging after it.
type judged struct {
	res    *load.Result
	wall   time.Duration
	judge  time.Duration
	events int
}

// judgeRun runs ops operations traced and lets load.Run judge the trace.
// The judging time is the wall time beyond the kernel's own clock.
func judgeRun(p pairing, seed int64, ops int64) (judged, error) {
	cfg := loadConfig(p, seed)
	cfg.MaxOps = ops
	cfg.Trace = true
	// Start every traced run from a collected heap, so the collections
	// during judging, and the live-heap peak they observe, fall at the
	// same points from run to run.
	runtime.GC()
	t0 := time.Now()
	res, err := load.Run(cfg)
	wall := time.Since(t0)
	if err != nil {
		return judged{}, fmt.Errorf("%s: %w", p, err)
	}
	j := judged{res: res, wall: wall, events: res.TraceEvents}
	j.judge = wall - time.Duration(res.ElapsedNs)
	if j.judge < 0 {
		j.judge = 0
	}
	return j, nil
}

// loadFailures counts what a load run failed: operations issued but not
// completed, oracle violations, and a kernel error.
func loadFailures(res *load.Result) int64 {
	n := res.Issued - res.Completed + int64(len(res.Violations))
	if res.KernelErr != nil {
		n++
	}
	return n
}

// latency merges a run's per-class total (and wait) histograms.
func latency(res *load.Result) (total, wait *load.Histogram) {
	total, wait = &load.Histogram{}, &load.Histogram{}
	for _, c := range res.Classes {
		total.Merge(c.Total)
		wait.Merge(c.Wait)
	}
	return total, wait
}
