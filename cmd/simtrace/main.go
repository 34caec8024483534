// Command simtrace runs one (mechanism, problem) solution on the
// deterministic kernel and prints the trace and oracle verdict; with
// -explore it hunts schedules for a violating interleaving.
//
// Usage:
//
//	simtrace -mech monitor -problem readers-priority
//	simtrace -mech monitor -problem readers-priority -kernel real
//	simtrace -mech pathexpr -problem readers-priority -explore
//	simtrace -mech pathexpr -problem readers-priority -explore -shrink -save-sched f1.sched
//	simtrace -replay f1.sched
//	simtrace -mech csp -problem disk-scheduler -policy random -seed 9
//	simtrace -list
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"repro/internal/eval"
	"repro/internal/explore"
	"repro/internal/explore/exploreflag"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synclint/xcheck"
	"repro/internal/synclint/xcheck/cyclicfix"
	"repro/internal/trace"
)

func main() {
	mech := flag.String("mech", "monitor", "mechanism: semaphore ccr pathexpr monitor serializer csp")
	problem := flag.String("problem", problems.NameReadersPriority, "problem name")
	kernelFlag := flag.String("kernel", "sim", "kernel: sim (deterministic scheduler) or real (goroutines, wall clock)")
	policy := flag.String("policy", "fifo", "schedule policy: fifo, lifo, random (sim kernel only)")
	seed := flag.Int64("seed", 1, "seed for -policy random")
	exploreFlag := flag.Bool("explore", false, "hunt schedules for a violation (readers/writers-priority problems)")
	exploreFlags := exploreflag.Register(flag.CommandLine)
	saveSched := flag.String("save-sched", "", "write the -explore finding to this path as a replayable .sched artifact")
	replayFile := flag.String("replay", "", "replay a saved .sched artifact with drift detection; exits 0 iff it reproduces")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) during -explore")
	list := flag.Bool("list", false, "list mechanisms and problems")
	quiet := flag.Bool("quiet", false, "suppress the trace, print only the verdict")
	flag.Parse()
	opts := exploreFlags.Options()

	if *list {
		var mechs []string
		for _, s := range solutions.All() {
			mechs = append(mechs, s.Mechanism)
		}
		fmt.Println("mechanisms:", strings.Join(mechs, ", "))
		fmt.Println("problems:  ", strings.Join(problems.AllProblems(), ", "))
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "simtrace: pprof:", err)
			}
		}()
	}

	if *replayFile != "" {
		runReplay(*replayFile, *quiet)
		return
	}

	suite, ok := solutions.ByMechanism(*mech)
	if !ok {
		fatal(fmt.Errorf("unknown mechanism %q", *mech))
	}

	switch *kernelFlag {
	case "sim":
	case "real":
		if *exploreFlag {
			fatal(fmt.Errorf("-explore needs the deterministic kernel (drop -kernel=real)"))
		}
		if opts.DPOR {
			fatal(fmt.Errorf("-dpor needs the deterministic kernel's dependency trace (drop -kernel=real)"))
		}
		if *policy != "fifo" {
			fatal(fmt.Errorf("-policy has no effect on the real kernel (goroutines schedule themselves)"))
		}
		runReal(suite, *problem, *quiet)
		return
	default:
		fatal(fmt.Errorf("unknown kernel %q (want sim or real)", *kernelFlag))
	}

	if *exploreFlag {
		opts.RandomRuns, opts.DFSRuns = 300, 600
		runExplore(suite, *problem, *quiet, *saveSched, opts)
		return
	}

	var pol kernel.Policy
	switch *policy {
	case "fifo":
		pol = kernel.FIFO()
	case "lifo":
		pol = kernel.LIFO()
	case "random":
		pol = kernel.Random(*seed)
	default:
		fatal(fmt.Errorf("unknown policy %q", *policy))
	}

	k := kernel.NewSim(kernel.WithPolicy(pol))
	strict := *policy == "fifo"
	tr, vs, err := solutions.RunStandard(k, suite, *problem, strict)
	if !*quiet {
		fmt.Print(tr)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d events, %d scheduling steps, strict=%v\n", len(tr), k.Steps(), strict)
	if stats, serr := tr.Stats(); serr == nil {
		fmt.Print(trace.RenderStats(stats))
	}
	if len(vs) == 0 {
		fmt.Println("oracle: trace admissible")
		return
	}
	fmt.Printf("oracle: %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Println("  " + v.String())
	}
	os.Exit(1)
}

// runReal runs the standard workload once on the real kernel: genuine
// goroutine concurrency and wall-clock time instead of the simulated
// scheduler. The trace is judged non-strict — exclusion and resource
// safety only — because FCFS/priority ordering is exact only on
// deterministic traces (that remains the sim kernel's job; see
// DESIGN.md §8). Steps are not reported: the real kernel makes no
// scheduling decisions of its own.
func runReal(suite solutions.Suite, problem string, quiet bool) {
	k := kernel.NewReal()
	defer k.Close()
	tr, vs, err := solutions.RunStandard(k, suite, problem, false)
	if !quiet {
		fmt.Print(tr)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%d events on the real kernel (non-deterministic), strict=false\n", len(tr))
	if stats, serr := tr.Stats(); serr == nil {
		fmt.Print(trace.RenderStats(stats))
	}
	if len(vs) == 0 {
		fmt.Println("oracle: trace admissible")
		return
	}
	fmt.Printf("oracle: %d violation(s):\n", len(vs))
	for _, v := range vs {
		fmt.Println("  " + v.String())
	}
	os.Exit(1)
}

// figureProgram rebuilds the figure-scenario exploration program and
// oracle for a (mechanism, priority-problem) pair — shared by -explore,
// -save-sched sealing, and -replay verification, which must all agree.
func figureProgram(suite solutions.Suite, problem string) (explore.Program, explore.Oracle, error) {
	var oracle explore.Oracle
	switch problem {
	case problems.NameReadersPriority:
		oracle = problems.CheckReadersPriority
	case problems.NameWritersPriority:
		oracle = problems.CheckWritersPriority
	default:
		return nil, nil, fmt.Errorf("figure scenario supports readers-priority and writers-priority, not %q", problem)
	}
	prog := explore.Program(func(k kernel.Kernel, r *trace.Recorder) {
		var store problems.RWStore
		switch problem {
		case problems.NameReadersPriority:
			store = suite.NewReadersPriority(k)
		default:
			store = suite.NewWritersPriority(k)
		}
		eval.FigureScenario(store)(k, r)
	})
	return prog, oracle, nil
}

// schedProgram rebuilds the program and oracle a schedule file was saved
// against, from its mechanism/problem/scenario fields.
func schedProgram(f *explore.SchedFile) (explore.Program, explore.Oracle, error) {
	if f.Scenario == xcheck.FixtureScenario {
		// The synclint cross-validation fixture is its own program; no
		// mechanism suite to resolve.
		return cyclicfix.Program, func(trace.Trace) []problems.Violation { return nil }, nil
	}
	suite, ok := solutions.ByMechanism(f.Mechanism)
	if !ok {
		return nil, nil, fmt.Errorf("schedule file names unknown mechanism %q", f.Mechanism)
	}
	switch f.Scenario {
	case "figure":
		return figureProgram(suite, f.Problem)
	case "standard":
		prog, check, err := solutions.StandardProgram(suite, f.Problem, false)
		if err != nil {
			return nil, nil, err
		}
		return explore.Program(prog), check, nil
	default:
		return nil, nil, fmt.Errorf("schedule file names unknown scenario %q", f.Scenario)
	}
}

// runReplay replays a saved schedule artifact with full drift detection
// and exits 0 iff it reproduces the recorded finding.
func runReplay(path string, quiet bool) {
	f, err := explore.ReadSchedFile(path)
	if err != nil {
		fatal(err)
	}
	prog, oracle, err := schedProgram(f)
	if err != nil {
		fatal(err)
	}
	tr, vs, err := f.Verify(prog, oracle)
	if !quiet && len(tr) > 0 {
		fmt.Print(tr)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replay ok: %s/%s/%s, %d choices, fingerprint %s\n",
		f.Mechanism, f.Problem, f.Scenario, len(f.Choices), f.Fingerprint)
	if f.KernelError != "" {
		fmt.Printf("reproduced kernel error class: %s\n", f.KernelError)
		return
	}
	for _, v := range vs {
		fmt.Println("reproduced violation: " + v.String())
	}
}

// runExplore hunts for priority violations on the figure scenario.
func runExplore(suite solutions.Suite, problem string, quiet bool, saveSched string, opts explore.Options) {
	prog, oracle, err := figureProgram(suite, problem)
	if err != nil {
		fatal(fmt.Errorf("-explore: %w", err))
	}
	res := explore.Run(prog, oracle, opts)
	if res.Pruned > 0 {
		fmt.Printf("explored %d schedules (pruned %d)\n", res.Runs, res.Pruned)
	} else {
		fmt.Printf("explored %d schedules\n", res.Runs)
	}
	if opts.DPOR {
		approx := "exactly "
		if !res.Stats.ScheduleSpaceExact {
			approx = "at most "
		}
		fmt.Printf("schedule space: %s2^%.1f interleavings; explored %.3g (backtracks %d, commuting siblings skipped %d)\n",
			approx, res.Stats.ScheduleSpaceLog2, res.Stats.ExploredFraction,
			res.Stats.BacktrackPoints, res.Stats.DPORBlocked)
	}
	if !res.Found {
		fmt.Println("no violation found")
		return
	}
	if res.Err != nil {
		fmt.Printf("kernel error under some schedule: %v\n", res.Err)
	}
	if !quiet {
		fmt.Println("violating trace:")
		fmt.Print(res.Trace)
	}
	for _, v := range res.Violations {
		fmt.Println("violation: " + v.String())
	}
	if res.MinSchedule != nil {
		fmt.Printf("shrunk schedule: %d choices (from %d, %d shrink replays): %v\n",
			len(res.MinSchedule), len(res.Schedule), res.ShrinkRuns, res.MinSchedule)
	}
	if saveSched != "" {
		schedule := res.Schedule
		if res.MinSchedule != nil {
			schedule = res.MinSchedule
		}
		f := explore.NewSchedFile(suite.Mechanism, problem, "figure", schedule)
		f.Note = "found by simtrace -explore"
		if err := f.Seal(prog, oracle); err != nil {
			fatal(fmt.Errorf("sealing %s: %w", saveSched, err))
		}
		if err := f.WriteFile(saveSched); err != nil {
			fatal(err)
		}
		fmt.Printf("saved schedule artifact: %s (replay with: simtrace -replay %s)\n", saveSched, saveSched)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "simtrace:", err)
	os.Exit(1)
}
