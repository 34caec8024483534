package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/explore"
	"repro/internal/load"
	"repro/internal/solutions"
)

// --- suite and deep --------------------------------------------------------

// buildSim builds a simulated workload's cells: for suite the 48 T4
// cells plus the synth control set and window, for deep the 18 deep
// cells. It also returns the number of synth cells not explored because
// the mechanism cannot express the set.
func buildSim(cfg config, workload string) ([]cell, int, error) {
	if workload == "deep" {
		cells, err := deepCells(cfg.b)
		return cells, 0, err
	}
	cells, err := t4Cells(cfg.b)
	if err != nil {
		return nil, 0, err
	}
	sc, inexpressible, err := synthCells(cfg.b, cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	return append(cells, sc...), inexpressible, nil
}

// warm runs every cell once under the FIFO schedule, so lazy
// initialisation is paid in set-up rather than in the first pass.
func warm(cells []cell) {
	for _, c := range cells {
		explore.Replay(c.prog, nil, c.opts.MaxSteps)
	}
}

// runSim measures the suite or deep workload: set up, then explore every
// cell in whole passes at the engine's default worker count for the
// run's seconds.
func runSim(cfg config, workload string, g *gate, m metricSet, rep *report) error {
	var cells []cell
	var inexpressible int
	setup, err := measureSetup(func() error {
		var err error
		if cells, inexpressible, err = buildSim(cfg, workload); err != nil {
			return err
		}
		warm(cells)
		return nil
	})
	if err != nil {
		return err
	}

	heap := startHeapSampler()
	defer heap.close()
	var passes []pass
	var peaks []float64
	until(cfg.seconds, func() {
		passes = append(passes, explorePass(cells, 0))
		peaks = append(peaks, heap.lapMB())
	})

	verify(g, cells, passes[0], !cfg.quick)
	for i := 1; i < len(passes); i++ {
		sameOutcomes(g, cells, passes[0], passes[i], fmt.Sprintf("pass %d vs pass 1", i+1))
	}

	// Each cell's time is its median over the passes, so a burst of
	// stolen time that the steal share does not fully account for moves
	// only the pass it hit. The percentiles are taken over the pinned
	// cells, which every seed shares: the synth window's cells are most
	// of the suite's cells, and which sets it holds would otherwise
	// decide the median.
	ct := cellTimes(passes, false)
	var verdict, rawVerdict float64
	for _, x := range cellTimes(passes, true) {
		rawVerdict += x
	}
	var fixed []float64
	for i, c := range cells {
		verdict += ct[i]
		if c.pinned {
			fixed = append(fixed, ct[i])
		}
	}
	var walls, cpus, steals []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		cpus = append(cpus, p.cpu.Seconds())
		steals = append(steals, 100*p.steal)
	}
	// Throughput is schedules per CPU-second, not per wall-second: it
	// measures what a schedule costs, independently of verdict_s, and an
	// explorer that reaches the same verdicts in fewer schedules does not
	// lower it.
	m.put("setup_s", "s", setup)
	m.put("verdict_s", "s", verdict)
	m.put("throughput_per_s", "1/s", float64(passes[0].schedules())/median(cpus))
	m.put("p50_us", "us", 1e6*median(fixed))
	m.put("tail_us", "us", 1e6*quantile(fixed, tailQuantile(len(fixed))))
	m.put("heap_peak_mb", "MiB", median(peaks))

	rep.printf("cells: %d explored, %d inexpressible synth cells skipped; verdicts: %s",
		len(cells), inexpressible, tally(passes[0]))
	rep.printf("passes: %d; schedules per pass: %d; pass wall: %s; CPU: %s; stolen: %s",
		len(passes), passes[0].schedules(), fmtList(walls, "s"), fmtList(cpus, "s"), fmtList(steals, "%"))
	rep.printf("raw (not net of stolen time): verdict_s %.6g s", rawVerdict)
	for _, set := range []struct {
		name string
		xs   []float64
	}{{"pinned cells", fixed}, {"all cells", ct}} {
		q := tailQuantile(len(set.xs))
		rep.printf("per-cell time to verdict, %s: p50 %.0f us, p%.1f %.0f us (n=%d)",
			set.name, 1e6*median(set.xs), 100*q, 1e6*quantile(set.xs, q), len(set.xs))
	}
	return nil
}

// tally counts a pass's verdict kinds.
func tally(p pass) string {
	counts := map[string]int{}
	for _, o := range p.outcomes {
		v, _, _ := strings.Cut(verdict(o.res), ":")
		counts[v]++
	}
	var kinds []string
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%d %s", counts[k], k)
	}
	return strings.Join(parts, ", ")
}

// --- load ----------------------------------------------------------------

// Load sizing: each of loadRounds rounds serves every pairing untraced;
// every judgeEvery-th round then also runs it traced for judgeOps
// operations and judges the trace. Whether a pairing's two clients share
// a processor changes from run to run and moves its latency severalfold,
// and the time to judge one trace varies as much with how its intervals
// happen to overlap, so the benchmark makes many short runs rather than
// a few long ones.
const (
	loadRounds = 48
	judgeEvery = 3
	judgeOps   = 1500
)

// loadServeTime is how long each pairing serves per round: serving takes
// about 80% of the run's seconds, the traced runs most of the rest.
func loadServeTime(cfg config, rounds int) time.Duration {
	d := time.Duration(cfg.seconds * 0.8 / float64(rounds*len(loadPairings())) * float64(time.Second))
	if cfg.quick || d < 20*time.Millisecond {
		d = 20 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// loadJudgeOps is the operation count of each traced, judged load run.
func loadJudgeOps(cfg config) int64 {
	if cfg.quick {
		return 200
	}
	return judgeOps
}

// countLoad adds a load run's operations to the gate.
func countLoad(g *gate, p pairing, res *load.Result) {
	g.count(res.Issued, loadFailures(res), "%s: %d of %d operations completed, kernel error %v, %d violations",
		p, res.Completed, res.Issued, res.KernelErr, len(res.Violations))
}

// runLoad measures the load workload in rounds (see loadRounds). A
// pairing's figure is the mean of its middle rounds: its latency jumps
// between two modes, so a median would jump with it. The run reports
// geometric means over the pairings, and as verdict_s the sum over
// pairings of the traced runs' time.
func runLoad(cfg config, g *gate, m metricSet, rep *report) error {
	pairs := loadPairings()
	setup, err := measureSetup(func() error {
		for i, p := range pairs {
			c := loadConfig(p, trafficSeed(cfg.seed, -1, i))
			c.MaxOps = 200
			res, err := load.Run(c)
			if err != nil {
				return err
			}
			countLoad(g, p, res)
		}
		return nil
	})
	if err != nil {
		return err
	}

	rounds := loadRounds
	if cfg.quick {
		rounds = judgeEvery
	}
	d, ops := loadServeTime(cfg, rounds), loadJudgeOps(cfg)
	n := len(pairs)
	rates, p50s, p99s, judging := make([][]float64, n), make([][]float64, n), make([][]float64, n), make([][]float64, n)
	rawRates, rawJudging := make([][]float64, n), make([][]float64, n)
	var peaks, steals []float64
	heap := startHeapSampler()
	defer heap.close()
	for round := 0; round < rounds; round++ {
		// Throughput and judging time are taken net of the share of the
		// round's CPU time the hypervisor stole; latency percentiles
		// are reported as measured.
		steal := startSteal()
		for i, p := range pairs {
			res, err := serve(p, trafficSeed(cfg.seed, round, i), d)
			if err != nil {
				return err
			}
			countLoad(g, p, res)
			tot, _ := latency(res)
			rawRates[i] = append(rawRates[i], res.Throughput())
			p50s[i] = append(p50s[i], float64(tot.Quantile(0.5))/1e3)
			p99s[i] = append(p99s[i], float64(tot.Quantile(0.99))/1e3)
		}
		s := steal.share()
		steals = append(steals, 100*s)
		for i, r := range rawRates {
			rates[i] = append(rates[i], r[round]/(1-s))
		}
		if round%judgeEvery != judgeEvery-1 {
			continue
		}
		steal = startSteal()
		for i, p := range pairs {
			j, err := judgeRun(p, trafficSeed(cfg.seed, round, i), ops)
			if err != nil {
				return err
			}
			g.check(j.res.Judged, "%s: traced run was not judged", p)
			countLoad(g, p, j.res)
			rawJudging[i] = append(rawJudging[i], j.wall.Seconds())
		}
		s = steal.share()
		for i, x := range rawJudging {
			judging[i] = append(judging[i], x[len(x)-1]*(1-s))
		}
		peaks = append(peaks, heap.lapMB())
	}
	perPairing := func(xs [][]float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = midmean(x)
		}
		return out
	}
	sum := func(xs []float64) float64 {
		var t float64
		for _, x := range xs {
			t += x
		}
		return t
	}
	verdict := sum(perPairing(judging))
	m.put("setup_s", "s", setup)
	m.put("verdict_s", "s", verdict)
	m.put("throughput_per_s", "1/s", geomean(perPairing(rates)))
	m.put("p50_us", "us", geomean(perPairing(p50s)))
	m.put("tail_us", "us", geomean(perPairing(p99s)))
	m.put("heap_peak_mb", "MiB", median(peaks))

	rep.printf("pairings: %d (closed loop, %d clients, no think time); %d rounds of %v serving per pairing; %d of them also judge a %d-op traced run per pairing",
		n, loadConfig(pairs[0], 1).Clients, rounds, d, rounds/judgeEvery, ops)
	rep.printf("stolen CPU time per serving round: median %.1f%%, max %.1f%%", median(steals), quantile(steals, 1))
	rep.printf("raw (not net of stolen time): verdict_s %.6g s, throughput_per_s %.6g 1/s",
		sum(perPairing(rawJudging)), geomean(perPairing(rawRates)))
	for i, p := range pairs {
		rep.printf("  %-28s %9.0f ops/s  p50 %6.2f us  p99 %7.2f us  traced run + judging %.3f s",
			p, midmean(rates[i]), midmean(p50s[i]), midmean(p99s[i]), midmean(judging[i]))
	}
	return nil
}

// --- ledger ----------------------------------------------------------------

// runLedger is the --trace 1 run: the per-layer ledger of the suite and
// deep workloads, the load layers, and the isolated probes.
func runLedger(cfg config, g *gate, m metricSet, rep *report) error {
	for _, w := range []string{"suite", "deep"} {
		if err := simLedger(cfg, w, g, m, rep); err != nil {
			return err
		}
	}
	if err := loadLedger(cfg, g, m, rep); err != nil {
		return err
	}
	return probes(cfg, g, m, rep)
}

// simLedger explores a simulated workload three times: untraced at the
// default worker count (the timed configuration), untraced at one
// worker, and traced at one worker. The untraced pair gives the parallel
// speedup, the one-worker pair the tracing overhead, and the traced pass
// the layer spans. All three must agree cell by cell.
func simLedger(cfg config, w string, g *gate, m metricSet, rep *report) error {
	cells, _, err := buildSim(cfg, w)
	if err != nil {
		return err
	}
	warm(cells)
	var timed pass
	nallocs, nbytes := allocs(func() { timed = explorePass(cells, 0) })
	verify(g, cells, timed, !cfg.quick)
	seq := explorePass(cells, 1)
	traced, led := tracedPass(cells)
	sameOutcomes(g, cells, timed, seq, "Workers=nproc vs Workers=1")
	sameOutcomes(g, cells, timed, traced, "untraced Workers=nproc vs traced Workers=1")

	sched := float64(timed.schedules())
	builds := float64(led.builds)
	rate := func(p pass) float64 { return float64(p.schedules()) / p.net(p.wall) }
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }

	m.put("explore.driver_ns_per_sched."+w, "ns", ratio(ns(led.span[layerDriver]), builds))
	m.put("explore.parallel_speedup."+w, "x", rate(timed)/rate(seq))
	var found, exhausted, backtrack, blocked, pruned, shrinks, emptied, runs int
	for _, o := range timed.outcomes {
		r := o.res
		runs += r.Runs
		if r.Found {
			found += r.Runs
		}
		if r.Stats.Exhausted {
			exhausted += r.Runs
			emptied++
		}
		backtrack += r.Stats.BacktrackPoints
		blocked += r.Stats.DPORBlocked
		pruned += r.Pruned
		shrinks += r.ShrinkRuns
	}
	m.put("explore.runs."+w, "count", float64(runs))
	m.put("explore.schedules_to_finding."+w, "count", float64(found))
	m.put("explore.schedules_to_exhaustion."+w, "count", float64(exhausted))
	m.put("explore.backtrack_points."+w, "count", float64(backtrack))
	m.put("explore.dpor_blocked."+w, "count", float64(blocked))
	m.put("explore.pruned."+w, "count", float64(pruned))
	m.put("explore.shrink_runs."+w, "count", float64(shrinks))
	m.put("explore.frontier_empty_cells."+w, "count", float64(emptied))
	m.put("explore.allocs_per_sched."+w, "count", ratio(float64(nallocs), sched))
	m.put("explore.alloc_bytes_per_sched."+w, "bytes", ratio(float64(nbytes), sched))
	m.put("solutions.build_ns_per_sched."+w, "ns", ratio(ns(led.span[layerBuild]), builds))
	m.put("kernel.exec_ns_per_step."+w, "ns", ratio(ns(led.span[layerExec]), float64(led.steps)))
	m.put("kernel.steps_per_sched."+w, "count", ratio(float64(led.steps), builds))
	m.put("trace.events_per_sched."+w, "count", ratio(float64(led.events), builds))
	m.put("problems.judge_ns_per_event."+w, "ns", ratio(ns(led.problemJudge), float64(led.problemJudgedEvents)))
	if w == "suite" {
		m.put("synth.judge_ns_per_event", "ns", ratio(ns(led.synthJudge), float64(led.synthJudgedEvts)))
	}
	for _, s := range solutions.All() {
		mech := s.Mechanism
		m.put(mech+".exec_ns_per_step."+w, "ns", ratio(ns(led.mechExec[mech]), float64(led.mechSteps[mech])))
	}
	m.put("ledger.attributed."+w, "share", led.attributed())
	overhead := traced.net(traced.wall)/seq.net(seq.wall) - 1
	m.put("ledger.tracing_overhead."+w, "share", overhead)

	rep.printf("%s ledger: %d cells, %d schedules; wall %.3f s at Workers=nproc, %.3f s at Workers=1, %.3f s traced (overhead %+.1f%% net of stolen time: %.1f%%, %.1f%%, %.1f%%)",
		w, len(cells), timed.schedules(), timed.wall.Seconds(), seq.wall.Seconds(), traced.wall.Seconds(), 100*overhead,
		100*timed.steal, 100*seq.steal, 100*traced.steal)
	var parts []string
	for l := layerDriver; l < numLayers; l++ {
		parts = append(parts, fmt.Sprintf("%s %.3f s (%.1f%%)", layerNames[l], led.span[l].Seconds(), 100*led.span[l].Seconds()/led.wall.Seconds()))
	}
	rep.printf("%s spans: %s; attributed %.1f%%", w, strings.Join(parts, ", "), 100*led.attributed())
	return nil
}

// loadLedger serves every pairing once untraced and once traced, and
// reports per-pairing capacity and the load layer's wait/service split.
func loadLedger(cfg config, g *gate, m metricSet, rep *report) error {
	d, ops := 250*time.Millisecond, loadJudgeOps(cfg)
	if cfg.quick {
		d = 20 * time.Millisecond
	}
	var wait50, svc50 []float64
	var judge time.Duration
	for i, p := range loadPairings() {
		res, err := serve(p, trafficSeed(cfg.seed, 0, i), d)
		if err != nil {
			return err
		}
		countLoad(g, p, res)
		tot, wait := latency(res)
		m.put(p.mech+".ops_per_s."+p.problem, "1/s", res.Throughput())
		m.put(p.mech+".p99_us."+p.problem, "us", float64(tot.Quantile(0.99))/1e3)
		w50 := float64(wait.Quantile(0.5)) / 1e3
		wait50 = append(wait50, w50)
		svc50 = append(svc50, float64(tot.Quantile(0.5))/1e3-w50)
		j, err := judgeRun(p, trafficSeed(cfg.seed, 0, i), ops)
		if err != nil {
			return err
		}
		g.check(j.res.Judged, "%s: traced run was not judged", p)
		countLoad(g, p, j.res)
		judge += j.judge
	}
	m.put("load.wait_p50_us", "us", median(wait50))
	m.put("load.service_p50_us", "us", median(svc50))
	m.put("load.judge_s", "s", judge.Seconds())
	rep.printf("load ledger: %v serving per pairing; wait p50 %.2f us, service p50 %.2f us (medians over pairings); judging %d-op traces %.3f s",
		d, median(wait50), median(svc50), ops, judge.Seconds())
	return nil
}

// probes runs the isolated layer probes.
func probes(cfg config, g *gate, m metricSet, rep *report) error {
	n := 1
	calibrate := 100 * time.Millisecond
	small, large := int64(2000), int64(4000)
	if cfg.quick {
		n, calibrate, small, large = 20, 10*time.Millisecond, 100, 200
	}
	m.put("kernel.sim_handoff_ns", "ns", simHandoffNs(50000/n))
	m.put("trace.record_ns", "ns", recordNs(50000/n))
	m.put("kernel.real_handoff_ns", "ns", realHandoffNs(20000/n))
	p50, p99 := sleepOvershootUs(1000 / n)
	m.put("kernel.real_sleep_overshoot_p50_us", "us", p50)
	m.put("kernel.real_sleep_overshoot_p99_us", "us", p99)
	recNs, speedup := histProbe(calibrate)
	m.put("load.hist_record_ns", "ns", recNs)
	m.put("load.hist_shard_speedup", "x", speedup)
	m.put("synth.sample_s", "s", sampleSeconds(cfg.seed, cfg.b.window))
	sNs, lNs, fails, err := judgeScaling(cfg.seed, small, large)
	if err != nil {
		return err
	}
	g.check(fails == 0, "judge-scaling probe: %d failed operations", fails)
	m.put("problems.load_judge_ns_per_event.small", "ns", sNs)
	m.put("problems.load_judge_ns_per_event.large", "ns", lNs)
	m.put("problems.load_judge_growth", "x", lNs/sNs)
	rep.printf("judge scaling: %.0f ns/event at %d ops, %.0f ns/event at %d ops (x%.2f for x%.0f operations)",
		sNs, small, lNs, large, lNs/sNs, float64(large)/float64(small))
	return nil
}
