package main

import (
	"time"

	"repro/internal/kernel"
	"repro/internal/load"
	"repro/internal/problems"
	"repro/internal/synth"
	"repro/internal/trace"
)

// Isolated layer probes. Each drives one layer through its public entry
// points with nothing else in the loop, so its cost can be told apart
// from the workloads that use it. Every probe repeats and reports the
// median.

const probeReps = 5

func repeatMedian(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// simHandoffNs is the cost of one SimKernel scheduling step between two
// processes that do nothing but Yield.
func simHandoffNs(yields int) float64 {
	return repeatMedian(probeReps, func() float64 {
		k := kernel.NewSim()
		defer k.Close()
		for i := 0; i < 2; i++ {
			k.Spawn("yielder", func(p *kernel.Proc) {
				for j := 0; j < yields; j++ {
					p.Yield()
				}
			})
		}
		t0 := time.Now()
		if err := k.Run(); err != nil {
			panic(err) // two yielding processes cannot deadlock
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(k.Steps())
	})
}

// recordNs is the cost of one Recorder.Enter or Recorder.Exit on the
// simulated kernel, net of the loop that issues them.
func recordNs(pairs int) float64 {
	run := func(record bool) float64 {
		k := kernel.NewSim()
		defer k.Close()
		r := trace.NewRecorder(k)
		var d time.Duration
		k.Spawn("recorder", func(p *kernel.Proc) {
			t0 := time.Now()
			for i := 0; i < pairs; i++ {
				if record {
					r.Enter(p, problems.OpRead, int64(i))
					r.Exit(p, problems.OpRead, int64(i))
				}
			}
			d = time.Since(t0)
		})
		if err := k.Run(); err != nil {
			panic(err) // one process never parks
		}
		return float64(d.Nanoseconds())
	}
	return repeatMedian(probeReps, func() float64 {
		return (run(true) - run(false)) / float64(2*pairs)
	})
}

// realHandoffNs is one Park/Unpark handoff on the real kernel: two
// processes ping-pong a permit n times.
func realHandoffNs(n int) float64 {
	return repeatMedian(probeReps, func() float64 {
		k := kernel.NewReal(kernel.WithWatchdog(time.Minute))
		defer k.Close()
		// Real processes start running inside Spawn; start holds both
		// until each knows the other.
		start := make(chan struct{})
		var ping, pong *kernel.Proc
		ping = k.Spawn("ping", func(p *kernel.Proc) {
			<-start
			for i := 0; i < n; i++ {
				pong.Unpark()
				p.Park()
			}
		})
		pong = k.Spawn("pong", func(p *kernel.Proc) {
			<-start
			for i := 0; i < n; i++ {
				p.Park()
				ping.Unpark()
			}
		})
		close(start)
		t0 := time.Now()
		if err := k.Run(); err != nil {
			panic(err) // the ping-pong always completes
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(2*n)
	})
}

// sleepOvershootUs samples how late a real-kernel Proc.Sleep of 100µs
// wakes, as an open-loop generator's sleeps would. It returns the p50
// and p99 in microseconds.
func sleepOvershootUs(samples int) (p50, p99 float64) {
	const want = 100 * time.Microsecond
	k := kernel.NewReal(kernel.WithTick(time.Microsecond), kernel.WithWatchdog(time.Minute))
	defer k.Close()
	late := make([]float64, 0, samples)
	k.Spawn("sleeper", func(p *kernel.Proc) {
		for i := 0; i < samples; i++ {
			t0 := k.Now()
			p.Sleep(int64(want / time.Microsecond))
			late = append(late, float64(k.Now()-t0-int64(want))/1e3)
		}
	})
	if err := k.Run(); err != nil {
		panic(err) // a lone sleeper always completes
	}
	return quantile(late, 0.5), quantile(late, 0.99)
}

// histProbe runs load.CalibrateHistograms and returns the cost of one
// sharded Record per writer and the sharded/shared throughput ratio.
func histProbe(d time.Duration) (recordNs, speedup float64) {
	rep := load.CalibrateHistograms(d)
	return float64(rep.Cores) * 1e9 / rep.ShardedRecordsPerSec, rep.Speedup
}

// sampleSeconds times synth.Sample over the suite's window.
func sampleSeconds(seed int64, n int) float64 {
	return repeatMedian(probeReps, func() float64 {
		t0 := time.Now()
		synth.Sample(seed, n)
		return time.Since(t0).Seconds()
	})
}

// judgeScaling judges traced load runs of the semaphore solutions at
// two fixed operation counts and returns the judging cost per event at
// each size (geometric mean over the load problems). Judging compares
// every pair of overlapping intervals, so the cost per event grows with
// the trace.
func judgeScaling(seed int64, small, large int64) (smallNs, largeNs float64, fails int64, err error) {
	at := func(ops int64) (float64, error) {
		var per []float64
		for i, problem := range loadProblems {
			var reps []float64
			for r := 0; r < probeReps; r++ {
				j, err := judgeRun(pairing{"semaphore", problem}, trafficSeed(seed, r, i), ops)
				if err != nil {
					return 0, err
				}
				fails += loadFailures(j.res)
				reps = append(reps, float64(j.judge.Nanoseconds())/float64(j.events))
			}
			per = append(per, median(reps))
		}
		return geomean(per), nil
	}
	if smallNs, err = at(small); err != nil {
		return
	}
	largeNs, err = at(large)
	return
}
