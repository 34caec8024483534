// Package explore hunts for oracle violations by exploring schedules of a
// simulated program.
//
// The paper's footnote 3 identifies a specific interleaving under which
// the Figure-1 path-expression solution misbehaves; Bloom constructed it
// by hand. This package mechanizes the construction: a program is run
// under many schedules — seeded random sampling and bounded systematic
// enumeration over the SimKernel's recorded choice sequences — until some
// run's trace fails its oracle. The offending schedule is returned as a
// replayable choice sequence, making the anomaly a reproducible artifact
// rather than an argument.
//
// Exploration is stateless model checking over scheduling choices:
// seeded random sampling, then bounded DFS over choice prefixes, reduced
// by optional fingerprint pruning (Options.Prune) and dynamic
// partial-order reduction (Options.DPOR, dpor.go).
//
// # Parallelism and determinism
//
// Run executes schedules on Options.Workers goroutines (default: all
// cores) while keeping its result independent of the worker count. The
// trick is speculation rather than racing. Every worker, the driver
// included, claims the unclaimed schedule nearest the front of the
// canonical sequential order (seed order for the random phase, LIFO
// frontier order for DFS), executes it, judges it with the oracle and,
// in DFS, computes the run's race candidates for the reduction — all
// pure functions of the run. A single driver then commits the outcomes
// in canonical order: dedup, the sleep-set and visited-state memories,
// frontier pushes and Progress happen only there. Whatever finding the
// sequential engine would have reported, the parallel engine reports —
// same Schedule, same Runs count — because every run is deterministic
// given its policy, and the driver's walk over outcomes is unchanged.
// Workers: 1 spawns no helpers at all and is literally the sequential
// engine.
package explore

import (
	"errors"
	"runtime"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/trace"
)

// Program builds one run of the system under test on a fresh kernel and
// recorder. It must spawn all processes (it is called before Run) and be
// deterministic apart from scheduling: exploration assumes two runs with
// the same schedule produce the same trace. Programs must also be safe to
// run on several kernels concurrently (each invocation gets its own kernel
// and recorder; sharing mutable state between invocations would break
// determinism anyway).
type Program func(k kernel.Kernel, r *trace.Recorder)

// Oracle judges a completed run's trace. Like a Program it must be safe
// for concurrent use: the worker that executed a run judges it, so with
// Workers > 1 several traces are judged at once. An oracle must be a pure
// function of the trace — same trace, same violations, no state kept or
// shared between calls — or the Result would depend on which worker
// judged what.
type Oracle func(tr trace.Trace) []problems.Violation

// Result describes one exploration outcome.
type Result struct {
	// Found reports whether a violating schedule was discovered.
	Found bool
	// Schedule is the replayable choice sequence of the violating run.
	Schedule []kernel.Choice
	// Trace is the violating run's trace.
	Trace trace.Trace
	// Violations are the oracle findings for that run.
	Violations []problems.Violation
	// Runs is the number of schedules judged, counting the violating one.
	// Speculative runs executed by helper workers past the finding are not
	// counted, so Runs is identical for every Workers setting.
	Runs int
	// Pruned counts sibling schedules the DFS phase skipped via
	// fingerprint pruning; always 0 unless Options.Prune. Like Runs it is
	// driver-side bookkeeping, identical for every Workers setting.
	Pruned int
	// MinSchedule is the 1-minimal violating schedule the shrinker
	// produced (Options.Shrink): it still triggers the same violation, and
	// removing any single choice from it no longer does. Nil when
	// shrinking was off or the finding was not shrinkable. MinSchedule is
	// canonicalized — every Choice records the actual ready count observed
	// at its decision point, so it replays under kernel.ExactReplay.
	MinSchedule []kernel.Choice
	// ShrinkRuns is the number of replays the shrinker executed. Shrink
	// replays are not counted in Runs, so enabling Shrink changes neither
	// Runs nor anything else about how the finding was reached.
	ShrinkRuns int
	// Stats is the deterministic counter core of the final progress
	// snapshot, byte-identical across Workers settings like the rest of
	// the Result. The live observability fields (wall clock, throughput,
	// pool occupancy) exist only in the Stats snapshots delivered to
	// Options.Progress.
	Stats StatsCore
	// Err is set when the finding is a kernel error (deadlock, livelock)
	// rather than an oracle violation, or when an Audit cross-check failed
	// (errors.Is(Err, ErrAuditFailed)).
	Err error
}

// ErrAuditFailed is wrapped by Result.Err when Options.Audit found a
// violation rule the reduced search missed; the message names the
// reductions that were on and the rules.
var ErrAuditFailed = errors.New("explore: audit failed")

// Options bounds the exploration.
type Options struct {
	// RandomRuns is the number of seeded-random schedules to sample
	// (seeds 1..RandomRuns). Default 200; negative disables the random
	// phase entirely (DFS-only exploration).
	RandomRuns int
	// DFSRuns bounds the number of systematic runs (0 disables DFS).
	DFSRuns int
	// DFSDepth bounds the length of the choice prefix the DFS branches
	// on; beyond it, runs continue FIFO. Default 40.
	DFSDepth int
	// MaxSteps is the per-run kernel step bound. Default 100000.
	MaxSteps int64
	// Workers is the number of goroutines executing schedules. 0 means
	// runtime.GOMAXPROCS(0). The Result is the same for every value (see
	// the package comment); Workers: 1 pins the sequential engine.
	Workers int
	// Prune enables schedule-space pruning in the DFS phase: decision
	// points whose kernel-state fingerprint was already branched from are
	// not branched again, and alternatives at invisible (pure-yield) steps
	// are skipped. Pruning typically reaches the first violation in far
	// fewer runs; it is heuristic (the fingerprint cannot see user data
	// state), so Audit exists as a cross-check.
	Prune bool
	// Pool is ignored: the executor always reuses kernels, recorders and
	// their buffers across runs (kernel.SimKernel.Reset) and hands
	// findings out as copies.
	//
	// Deprecated: runs are always recycled; ignored.
	Pool bool
	// DPOR enables dynamic partial-order reduction in the DFS phase: the
	// kernel records which shared objects every scheduling step accessed
	// (kernel.WithDepTrace), and instead of branching at every visible
	// decision point the engine walks each completed run's dependency
	// trace, detects pairs of conflicting steps not ordered by
	// happens-before, and pushes a backtrack point at the earlier step's
	// branch group only (persistent sets). A sleep-set memory suppresses
	// re-proposing a process already scheduled from the same branch
	// group. The reduction composes with Prune (proposal points are
	// fingerprint-deduped) and Shrink, and every order-dependent
	// decision is made on the driver in canonical order, so the Result
	// stays byte-identical at every Workers count.
	// Like Prune the dependency relation is a conservative heuristic;
	// Audit is the cross-check. Result.Stats reports BacktrackPoints,
	// DPORBlocked, and the analytic ExploredFraction (see coverage.go).
	DPOR bool
	// Audit cross-checks whichever reductions are on (Prune, DPOR): the
	// DFS budget runs twice — reduced and fully unreduced, both to
	// completion — and the Result is an error finding wrapping
	// ErrAuditFailed if the unreduced frontier surfaced any violation rule
	// the reduced search missed. Without Prune or DPOR there is nothing to
	// audit and it does nothing. Meant for test suites and CI, not
	// hunting.
	Audit bool
	// Shrink minimizes the finding's schedule by delta debugging before
	// Run returns: chunks of choices are removed and remaining choices
	// substituted with the FIFO default, re-running each candidate under
	// replay and re-judging it with the same oracle, until the schedule is
	// 1-minimal. The result lands in Result.MinSchedule; the replays are
	// counted in Result.ShrinkRuns, not Runs. Shrinking runs on the driver
	// and reuses the executor's recycled kernels, so it is cheap and
	// Workers-independent.
	Shrink bool
	// Progress, when non-nil, receives Stats snapshots from the driver as
	// the search advances — per phase transition and per judged run.
	// Called on the driver goroutine; keep it cheap (renderers should
	// throttle themselves). Progress observes the search but must not
	// influence it.
	Progress func(Stats)
}

func (o Options) withDefaults() Options {
	if o.RandomRuns == 0 {
		o.RandomRuns = 200
	}
	if o.RandomRuns < 0 {
		o.RandomRuns = 0
	}
	if o.DFSDepth == 0 {
		o.DFSDepth = 40
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 100000
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// judge converts one run into a Result if it is a finding; the caller
// stamps Runs. Findings are handed out as copies: runOut's slices are
// views into recycled executor state, and a Result outlives the run that
// produced it.
func judge(out runOut, oracle Oracle) (Result, bool) {
	if out.err != nil {
		return finding(out, nil, out.err), true
	}
	if vs := oracle(out.tr); len(vs) > 0 {
		return finding(out, vs, nil), true
	}
	return Result{}, false
}

func finding(out runOut, vs []problems.Violation, err error) Result {
	return Result{
		Found:      true,
		Schedule:   append([]kernel.Choice(nil), out.schedule...),
		Trace:      append(trace.Trace(nil), out.tr...),
		Violations: vs,
		Err:        err,
	}
}

// Run explores schedules of prog until the oracle rejects one or the
// budget is exhausted. The result does not depend on Options.Workers.
func Run(prog Program, oracle Oracle, opts Options) Result {
	opts = opts.withDefaults()
	e := newExecutor(opts)
	defer e.close()
	t := newTracker(e, opts)

	res := runPhases(e, prog, oracle, opts, t)
	if opts.Shrink && res.Found {
		t.phase("shrink")
		shrinkResult(e, prog, oracle, &res, t)
	}
	res.Stats = t.deterministic(&res)
	t.st.StatsCore = res.Stats
	t.emit()
	return res
}

// runPhases is the search itself: FIFO baseline, seeded random sampling,
// bounded DFS.
func runPhases(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) Result {
	// Phase 0: the deterministic FIFO baseline.
	t.phase("baseline")
	out := e.run(prog, kernel.FIFO())
	if opts.DPOR {
		// The baseline run's happens-before order is the analytic
		// denominator: its linear-extension count is the scenario's total
		// interleaving count (see coverage.go).
		log2, exact := coverageOf(out)
		t.noteCoverage(log2, exact)
	}
	t.ran()
	if res, found := judge(out, oracle); found {
		res.Runs = t.st.Runs
		return res
	}
	e.release(out)

	// Phase 1: seeded random sampling.
	if res, found := randomPhase(e, prog, oracle, opts, t); found {
		return res
	}

	// Phase 2: bounded DFS over choice prefixes. Running Replay(prefix)
	// extends the prefix FIFO, and the recorded choices tell us where
	// alternatives exist.
	return dfsPhase(e, prog, oracle, opts, t)
}

// Replay re-executes prog under the given schedule and returns its trace
// and kernel error — used to double-check and to render findings.
func Replay(prog Program, schedule []kernel.Choice, maxSteps int64) (trace.Trace, error) {
	if maxSteps == 0 {
		maxSteps = 100000
	}
	// A one-shot run: a plain kernel and recorder, nothing to recycle.
	k := kernel.NewSim(kernel.WithMaxSteps(maxSteps), kernel.WithPolicy(kernel.Replay(schedule)))
	r := trace.NewRecorder(k)
	prog(k, r)
	err := k.Run()
	return r.Snapshot(), err
}
