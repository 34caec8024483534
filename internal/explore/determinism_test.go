package explore_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/explore"
	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/synth"
	"repro/internal/trace"
)

// detCell is one exploration of the determinism matrix.
type detCell struct {
	name   string
	prog   explore.Program
	oracle explore.Oracle
	opts   explore.Options
}

// deepRW is the deep readers/writers scenario: three readers and two
// writers, one round each, long reads.
var deepRW = problems.RWConfig{Readers: 3, Writers: 2, Rounds: 1, ReadYields: 6, WriteYields: 1, GapYields: 1}

// determinismCells are the inputs of TestWorkersDeterministicEngineSettings:
// every T4 cell, the deep readers/writers scenario under every mechanism
// and variant, and the generated control set under every adapter that
// can express it.
func determinismCells(t *testing.T) []detCell {
	var cells []detCell
	for _, s := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			strict := !(s.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
			prog, check, err := solutions.StandardProgram(s, problem, strict)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, detCell{"t4/" + s.Mechanism + "/" + problem, prog, check,
				explore.Options{RandomRuns: 10, DFSRuns: 60}})
		}
	}
	for _, s := range solutions.All() {
		for _, problem := range []string{problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW} {
			newDB, ok := solutions.RWConstructor(s, problem)
			if !ok {
				t.Fatalf("no %s solution for %s", problem, s.Mechanism)
			}
			strict := !(s.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
			problem := problem
			cells = append(cells, detCell{"deep/" + s.Mechanism + "/" + problem,
				func(k kernel.Kernel, r *trace.Recorder) {
					_ = problems.SpawnRW(k, newDB(k), r, deepRW)
				},
				func(tr trace.Trace) []problems.Violation { return problems.CheckRW(problem, tr, strict) },
				explore.Options{RandomRuns: -1, DFSRuns: 200, DFSDepth: 48}})
		}
	}
	set := synth.Generate(28)
	for _, mech := range synth.Mechanisms() {
		prog, oracle, err := synth.Program(set, mech)
		if err != nil {
			continue // the mechanism cannot express the set
		}
		cells = append(cells, detCell{fmt.Sprintf("control/%d/%s", set.Seed, mech), prog, oracle,
			explore.Options{RandomRuns: 30, DFSRuns: 60}})
	}
	return cells
}

// The determinism contract at the settings the repository benchmark
// uses (Prune, DPOR and Shrink on): the whole Result — Schedule,
// Trace, Violations, Runs, Pruned, MinSchedule, ShrinkRuns and Stats — is
// the same at Workers 1, 2 and 8, and so is Err's message.
func TestWorkersDeterministicEngineSettings(t *testing.T) {
	cells := determinismCells(t)
	found := make([]bool, len(cells))
	t.Run("cells", func(t *testing.T) {
		for i, c := range cells {
			t.Run(c.name, func(t *testing.T) {
				t.Parallel()
				var want explore.Result
				for j, w := range []int{1, 2, 8} {
					opts := c.opts
					opts.Workers = w
					opts.Prune, opts.DPOR, opts.Shrink = true, true, true
					got := explore.Run(c.prog, c.oracle, opts)
					if j == 0 {
						want = got
						found[i] = got.Found
						continue
					}
					if errText(got.Err) != errText(want.Err) {
						t.Fatalf("Err at Workers=%d: %q, at Workers=1: %q", w, errText(got.Err), errText(want.Err))
					}
					got.Err, want.Err = nil, nil
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Result at Workers=%d differs from Workers=1:\n  got:  %+v\n  want: %+v", w, got, want)
					}
				}
			})
		}
	})
	// The parallel subtests have finished: t.Run("cells") waits for them.
	// The matrix must exercise findings (and so shrinking), not only
	// clean searches.
	n := 0
	for _, f := range found {
		if f {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no cell reported a finding")
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
