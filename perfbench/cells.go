package main

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synth"
	"repro/internal/trace"
)

// A cell is one exploration the suite or deep workload runs: a program,
// its oracle, and the search budget. Cells are built once in set-up and
// explored many times; every explore.Run of a cell is deterministic, so
// its verdict, Runs and StatsCore must repeat exactly on every pass and
// at every worker count.
type cell struct {
	name      string // "t4/<mech>/<problem>", "control/<set>/<mech>", "synth/<set>/<mech>" or "deep/<mech>/<problem>"
	mechanism string
	synth     bool // judged by a synth-derived oracle
	prog      explore.Program
	oracle    explore.Oracle
	opts      explore.Options // budget only; engineOptions adds the shared switches
	// pinned cells must report the verdict want. The synth window is not
	// pinned: its sets move with the seed, and verify gates it by the
	// corpus rules instead.
	pinned bool
	want   string
}

// engineOptions applies the one explorer configuration every workload
// shares: Pool, Prune, DPOR and Shrink on, Checkpoint and Stream off.
func engineOptions(budget explore.Options, workers int) explore.Options {
	o := budget
	o.Workers = workers
	o.Pool = true
	o.Prune = true
	o.DPOR = true
	o.Shrink = true
	return o
}

// budgets sizes the searches: suite is the T4 conformance budget, synth
// the syncfuzz default, deep a DFS-only search deep enough that the
// driver's race analysis and frontier dominate, and window the number of
// generated constraint sets the suite explores, starting at the seed.
type budgets struct {
	suite, synth, deep explore.Options
	window             int
}

var fullBudgets = budgets{
	suite:  explore.Options{RandomRuns: 100, DFSRuns: 400},
	synth:  explore.Options{RandomRuns: 150, DFSRuns: 100},
	deep:   explore.Options{RandomRuns: -1, DFSRuns: 20000, DFSDepth: 48},
	window: 40,
}

// quickBudgets are the smoke test's tiny budgets. Verdicts depend on
// the budget, so a quick run checks only what does not: replays and the
// agreement between passes.
var quickBudgets = budgets{
	suite:  explore.Options{RandomRuns: 5, DFSRuns: 10},
	synth:  explore.Options{RandomRuns: 5, DFSRuns: 5},
	deep:   explore.Options{RandomRuns: -1, DFSRuns: 100, DFSDepth: 48},
	window: 2,
}

// controlSet is the generated set the naive-gate control is known to
// fail on (the `make fuzz` window's set 28). The suite explores it under
// every adapter with pinned verdicts whatever the seed, so the synth
// oracle is always shown a broken mechanism to catch; a window drawn
// from the seed alone holds no naive-gate failure for some seeds.
const controlSet = 28

// deepRW is the deep readers/writers scenario: three one-shot readers
// with long reads against two writers.
var deepRW = problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1, ReadYields: 6, WriteYields: 1, GapYields: 1}

// deepProblems are the readers/writers variants the deep workload runs
// for every mechanism.
var deepProblems = []string{problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW}

// strictFor reports whether the ordering constraints are judged: every
// pairing except path expressions on readers-priority, whose Figure-1
// solution is the paper's documented anomaly (it is judged on exclusion
// only, like the T4 suite does).
func strictFor(mech, problem string) bool {
	return !(mech == "pathexpr" && problem == problems.NameReadersPriority)
}

// t4Cells returns the 48 T4 cells: every mechanism on every problem of
// the standard suite.
func t4Cells(b budgets) ([]cell, error) {
	var out []cell
	for _, s := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			prog, check, err := solutions.StandardProgram(s, problem, strictFor(s.Mechanism, problem))
			if err != nil {
				return nil, err
			}
			name := "t4/" + s.Mechanism + "/" + problem
			out = append(out, cell{
				name: name, mechanism: s.Mechanism,
				prog: prog, oracle: check, opts: b.suite,
				pinned: true, want: pins[name],
			})
		}
	}
	return out, nil
}

// synthCells returns the control set and the synth window for a seed
// (b.window sets from synth.Sample) under every adapter synth.Program
// accepts. Sets a mechanism cannot express are counted, not explored.
func synthCells(b budgets, seed int64) (cells []cell, inexpressible int, err error) {
	sets := append([]*synth.Set{synth.Generate(controlSet)}, synth.Sample(seed, b.window)...)
	for i, set := range sets {
		for _, mech := range synth.Mechanisms() {
			if synth.Supports(mech, set) != nil {
				inexpressible++
				continue
			}
			prog, oracle, err := synth.Program(set, mech)
			if err != nil {
				return nil, 0, err
			}
			c := cell{
				name:      fmt.Sprintf("synth/%d/%s", set.Seed, mech),
				mechanism: mech, synth: true,
				prog: prog, oracle: oracle, opts: b.synth,
			}
			if i == 0 {
				c.name = fmt.Sprintf("control/%d/%s", set.Seed, mech)
				c.pinned, c.want = true, pins[c.name]
			}
			cells = append(cells, c)
		}
	}
	return cells, inexpressible, nil
}

// deepCells returns the 18 deep cells: every mechanism on the deep
// scenario of each readers/writers variant.
func deepCells(b budgets) ([]cell, error) {
	var out []cell
	for _, s := range solutions.All() {
		for _, problem := range deepProblems {
			newDB, ok := solutions.RWConstructor(s, problem)
			if !ok {
				return nil, fmt.Errorf("no %s solution for %s", problem, s.Mechanism)
			}
			strict := strictFor(s.Mechanism, problem)
			problem := problem
			name := "deep/" + s.Mechanism + "/" + problem
			out = append(out, cell{
				name: name, mechanism: s.Mechanism,
				prog: func(k kernel.Kernel, r *trace.Recorder) {
					_ = problems.SpawnRW(k, newDB(k), r, deepRW) // deepRW is valid
				},
				oracle: func(tr trace.Trace) []problems.Violation {
					return problems.CheckRW(problem, tr, strict)
				},
				opts:   b.deep,
				pinned: true, want: pins[name],
			})
		}
	}
	return out, nil
}

// verdict renders a Result's outcome: "pass", "fail:<rules>" for an
// oracle finding (distinct rules, sorted), "deadlock", or "error:<msg>"
// for any other kernel error.
func verdict(res explore.Result) string {
	switch {
	case !res.Found:
		return "pass"
	case res.Err != nil && errors.Is(res.Err, kernel.ErrDeadlock):
		return "deadlock"
	case res.Err != nil:
		return "error:" + res.Err.Error()
	}
	seen := map[string]bool{}
	var rules []string
	for _, v := range res.Violations {
		if !seen[v.Rule] {
			seen[v.Rule] = true
			rules = append(rules, v.Rule)
		}
	}
	sort.Strings(rules)
	return "fail:" + strings.Join(rules, "+")
}

// replayCheck re-executes a finding's schedule with explore.Replay and
// requires it to reproduce: the oracle must reject the replayed trace,
// or the replay must end in the same kind of kernel error.
func replayCheck(c cell, res explore.Result) error {
	tr, err := explore.Replay(c.prog, res.Schedule, c.opts.MaxSteps)
	if res.Err != nil {
		if err == nil || errors.Is(res.Err, kernel.ErrDeadlock) != errors.Is(err, kernel.ErrDeadlock) {
			return fmt.Errorf("%s: replay ended in %v, finding was %v", c.name, err, res.Err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("%s: replay ended in kernel error %v", c.name, err)
	}
	if len(c.oracle(tr)) == 0 {
		return fmt.Errorf("%s: oracle accepts the replayed finding", c.name)
	}
	return nil
}

// pins is the expected verdict of every T4 and deep cell under the
// shared engine options. A change to any of them is a behaviour change
// of the explorer, a mechanism or an oracle, and fails the benchmark.
var pins = map[string]string{
	// T4: the standard suite at the conformance budget.
	"t4/semaphore/bounded-buffer":    "pass",
	"t4/semaphore/fcfs":              "pass",
	"t4/semaphore/readers-priority":  "fail:readers-priority",
	"t4/semaphore/disk-scheduler":    "pass",
	"t4/semaphore/alarm-clock":       "pass",
	"t4/semaphore/one-slot-buffer":   "pass",
	"t4/semaphore/writers-priority":  "pass",
	"t4/semaphore/fcfs-rw":           "pass",
	"t4/ccr/bounded-buffer":          "pass",
	"t4/ccr/fcfs":                    "pass",
	"t4/ccr/readers-priority":        "pass",
	"t4/ccr/disk-scheduler":          "pass",
	"t4/ccr/alarm-clock":             "pass",
	"t4/ccr/one-slot-buffer":         "pass",
	"t4/ccr/writers-priority":        "fail:writers-priority",
	"t4/ccr/fcfs-rw":                 "pass",
	"t4/pathexpr/bounded-buffer":     "pass",
	"t4/pathexpr/fcfs":               "pass",
	"t4/pathexpr/readers-priority":   "pass",
	"t4/pathexpr/disk-scheduler":     "pass",
	"t4/pathexpr/alarm-clock":        "pass",
	"t4/pathexpr/one-slot-buffer":    "pass",
	"t4/pathexpr/writers-priority":   "pass",
	"t4/pathexpr/fcfs-rw":            "pass",
	"t4/monitor/bounded-buffer":      "pass",
	"t4/monitor/fcfs":                "pass",
	"t4/monitor/readers-priority":    "pass",
	"t4/monitor/disk-scheduler":      "pass",
	"t4/monitor/alarm-clock":         "pass",
	"t4/monitor/one-slot-buffer":     "pass",
	"t4/monitor/writers-priority":    "fail:writers-priority",
	"t4/monitor/fcfs-rw":             "pass",
	"t4/serializer/bounded-buffer":   "pass",
	"t4/serializer/fcfs":             "pass",
	"t4/serializer/readers-priority": "fail:readers-priority",
	"t4/serializer/disk-scheduler":   "fail:scan-order",
	"t4/serializer/alarm-clock":      "pass",
	"t4/serializer/one-slot-buffer":  "pass",
	"t4/serializer/writers-priority": "fail:writers-priority",
	"t4/serializer/fcfs-rw":          "pass",
	"t4/csp/bounded-buffer":          "pass",
	"t4/csp/fcfs":                    "pass",
	"t4/csp/readers-priority":        "pass",
	"t4/csp/disk-scheduler":          "pass",
	"t4/csp/alarm-clock":             "pass",
	"t4/csp/one-slot-buffer":         "pass",
	"t4/csp/writers-priority":        "fail:writers-priority",
	"t4/csp/fcfs-rw":                 "pass",

	// The synth control set: path expressions cannot express it.
	"control/28/semaphore":  "pass",
	"control/28/ccr":        "pass",
	"control/28/monitor":    "pass",
	"control/28/serializer": "pass",
	"control/28/csp":        "pass",
	"control/28/naive-gate": "fail:p1",

	// The deep readers/writers scenario.
	"deep/semaphore/readers-priority":  "pass",
	"deep/semaphore/writers-priority":  "pass",
	"deep/semaphore/fcfs-rw":           "pass",
	"deep/ccr/readers-priority":        "pass",
	"deep/ccr/writers-priority":        "fail:writers-priority",
	"deep/ccr/fcfs-rw":                 "pass",
	"deep/pathexpr/readers-priority":   "pass",
	"deep/pathexpr/writers-priority":   "pass",
	"deep/pathexpr/fcfs-rw":            "pass",
	"deep/monitor/readers-priority":    "pass",
	"deep/monitor/writers-priority":    "fail:writers-priority",
	"deep/monitor/fcfs-rw":             "pass",
	"deep/serializer/readers-priority": "fail:readers-priority",
	"deep/serializer/writers-priority": "fail:writers-priority",
	"deep/serializer/fcfs-rw":          "pass",
	"deep/csp/readers-priority":        "pass",
	"deep/csp/writers-priority":        "fail:writers-priority",
	"deep/csp/fcfs-rw":                 "pass",
}
