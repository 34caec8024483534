package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/synth"
	"repro/internal/trace"
)

// outcome is what one explore.Run of a cell reported.
type outcome struct {
	res  explore.Result
	wall time.Duration
}

// key is the part of an outcome that must repeat exactly on every pass
// and at every worker count: verdict, Runs and the deterministic stats.
type key struct {
	verdict string
	runs    int
	core    explore.StatsCore
}

func (o outcome) key() key { return key{verdict(o.res), o.res.Runs, o.res.Stats} }

// pass is one exploration of every cell.
type pass struct {
	wall     time.Duration
	cpu      time.Duration // process CPU time, all goroutines
	steal    float64       // share of the machine's CPU time stolen meanwhile
	outcomes []outcome
}

// net returns d less the share of it the hypervisor stole during the pass.
func (p pass) net(d time.Duration) float64 { return d.Seconds() * (1 - p.steal) }

// schedules counts the schedules a pass executed on the driver's
// count: judged runs plus shrink replays.
func (p pass) schedules() int {
	n := 0
	for _, o := range p.outcomes {
		n += o.res.Runs + o.res.ShrinkRuns
	}
	return n
}

// explorePass explores every cell once, untraced, at the given worker
// count (0: GOMAXPROCS).
func explorePass(cells []cell, workers int) pass {
	p := pass{outcomes: make([]outcome, len(cells))}
	runtime.GC() // every pass starts from a collected heap
	start, cpu0, steal := time.Now(), cpuTime(), startSteal()
	for i, c := range cells {
		t0 := time.Now()
		res := explore.Run(c.prog, c.oracle, engineOptions(c.opts, workers))
		p.outcomes[i] = outcome{res: res, wall: time.Since(t0)}
	}
	p.wall, p.cpu, p.steal = time.Since(start), cpuTime()-cpu0, steal.share()
	return p
}

// gate accumulates the correctness checks of a run: what was checked,
// what failed, and why.
type gate struct {
	attempted int64
	failed    int64
	problems  []string
}

func (g *gate) check(ok bool, format string, args ...any) {
	g.attempted++
	if !ok {
		g.failed++
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// count adds n attempted items of which bad failed.
func (g *gate) count(n, bad int64, format string, args ...any) {
	g.attempted += n
	if bad > 0 {
		g.failed += bad
		g.problems = append(g.problems, fmt.Sprintf(format, args...))
	}
}

// verify judges a pass's verdicts: pinned cells must match their pin,
// synth cells must obey the corpus rules, and every finding must replay.
// With pinsEnforced off (tiny budgets) only the budget-independent
// checks run.
func verify(g *gate, cells []cell, p pass, pinsEnforced bool) {
	naiveFails := 0
	haveSynth := false
	for i, c := range cells {
		res := p.outcomes[i].res
		v := verdict(res)
		if res.Found {
			err := replayCheck(c, res)
			g.check(err == nil, "replay: %v", err)
		}
		if c.synth {
			haveSynth = true
			if c.mechanism == synth.NaiveGate && strings.HasPrefix(v, "fail:") {
				naiveFails++
			}
		}
		switch {
		case c.pinned:
			g.check(!pinsEnforced || v == c.want, "%s: verdict %s, pinned %s", c.name, v, c.want)
		case c.mechanism == synth.NaiveGate:
			g.check(true, "")
		default:
			// A real mechanism upholds every set it can express; a set
			// whose own constraints can wedge shows up as a deadlock.
			g.check(v == "pass" || v == "deadlock", "%s: verdict %s (want pass or deadlock)", c.name, v)
		}
	}
	if haveSynth && pinsEnforced {
		g.check(naiveFails > 0, "synth window: the naive-gate control never failed")
	}
}

// sameOutcomes requires two passes over the same cells to report
// identical verdicts, Runs and StatsCore per cell.
func sameOutcomes(g *gate, cells []cell, a, b pass, what string) {
	for i, c := range cells {
		ka, kb := a.outcomes[i].key(), b.outcomes[i].key()
		g.check(reflect.DeepEqual(ka, kb), "%s: %s differs: %+v vs %+v", c.name, what, ka, kb)
	}
}

// cellTimes returns each cell's time to verdict in seconds, net of
// stolen time unless raw: the median over the passes.
func cellTimes(passes []pass, raw bool) []float64 {
	xs := make([]float64, len(passes[0].outcomes))
	per := make([]float64, len(passes))
	for i := range xs {
		for j, p := range passes {
			per[j] = p.net(p.outcomes[i].wall)
			if raw {
				per[j] = p.outcomes[i].wall.Seconds()
			}
		}
		xs[i] = median(per)
	}
	return xs
}

// --- traced pass ---------------------------------------------------------

// layer is where the traced pass attributes time.
type layer int

const (
	layerDriver layer = iota // explore's own bookkeeping between callbacks
	layerBuild               // the Program call: solution and process construction
	layerExec                // end of Program to the run's Progress (or Oracle) call
	layerJudge               // the Oracle call
	numLayers
)

var layerNames = [numLayers]string{"driver", "build", "exec", "judge"}

// ledger is the traced pass's account of where the time went.
type ledger struct {
	wall   time.Duration // whole traced pass
	span   [numLayers]time.Duration
	builds int64 // Program calls
	steps  int64 // kernel steps of executed runs
	events int64 // trace events of executed runs

	problemJudge, synthJudge             time.Duration
	problemJudgedEvents, synthJudgedEvts int64

	mechExec  map[string]time.Duration
	mechSteps map[string]int64
}

func newLedger() *ledger {
	return &ledger{mechExec: map[string]time.Duration{}, mechSteps: map[string]int64{}}
}

// attributed is the share of the pass's wall time the spans cover.
func (l *ledger) attributed() float64 {
	var sum time.Duration
	for _, d := range l.span {
		sum += d
	}
	return sum.Seconds() / l.wall.Seconds()
}

// tracedPass explores every cell at Workers=1 with the benchmark's own
// wrappers around Program, Oracle and Progress. With one worker the
// callbacks arrive in execution order, so consecutive timestamps split
// the wall time: build is the Program call, exec runs from its end to
// the run's Progress call (or its Oracle call, whichever comes first),
// judge is the Oracle call, and everything between is driver time.
func tracedPass(cells []cell) (pass, *ledger) {
	l := newLedger()
	p := pass{outcomes: make([]outcome, len(cells))}
	start, steal := time.Now(), startSteal()
	for i, c := range cells {
		c := c
		var (
			k     *kernel.SimKernel
			rec   *trace.Recorder
			state = layerDriver
			last  = time.Now()
		)
		// advance closes the interval since the last callback into the
		// current layer and moves to next.
		advance := func(next layer) time.Time {
			now := time.Now()
			d := now.Sub(last)
			l.span[state] += d
			if state == layerExec {
				l.mechExec[c.mechanism] += d
				steps := k.Steps()
				l.steps += steps
				l.mechSteps[c.mechanism] += steps
				l.events += int64(rec.Len())
			}
			state, last = next, now
			return now
		}
		prog := func(kk kernel.Kernel, r *trace.Recorder) {
			advance(layerBuild)
			l.builds++
			k, rec = kk.(*kernel.SimKernel), r
			c.prog(kk, r)
			advance(layerExec)
		}
		oracle := func(tr trace.Trace) []problems.Violation {
			t0 := advance(layerJudge)
			vs := c.oracle(tr)
			t1 := advance(layerDriver)
			if c.synth {
				l.synthJudge += t1.Sub(t0)
				l.synthJudgedEvts += int64(len(tr))
			} else {
				l.problemJudge += t1.Sub(t0)
				l.problemJudgedEvents += int64(len(tr))
			}
			return vs
		}
		opts := engineOptions(c.opts, 1)
		opts.Progress = func(explore.Stats) {
			if state == layerExec {
				advance(layerDriver)
			}
		}
		t0 := time.Now()
		res := explore.Run(prog, oracle, opts)
		advance(layerDriver)
		p.outcomes[i] = outcome{res: res, wall: time.Since(t0)}
	}
	p.wall, p.steal = time.Since(start), steal.share()
	l.wall = p.wall
	return p, l
}

// allocs measures heap allocations across f.
func allocs(f func()) (count, bytes uint64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc
}
