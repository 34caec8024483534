package explore

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/solutions/pathexprsol"
	"repro/internal/trace"
)

// figure1Program is the footnote-3 scenario over a fresh path-expression
// readers-priority instance per run — the exploration engine's canonical
// "there is a bug to find" workload.
func figure1Program() Program {
	return func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(pathexprsol.NewReadersPriority())(k, r)
	}
}

// Pruning must reach the first Figure-1 finding in at least 5x fewer
// schedules than plain DFS (the acceptance bar for this optimization),
// and both searches must find the anomaly at all.
func TestPruneReachesFindingFaster(t *testing.T) {
	opts := Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24}
	plain := Run(figure1Program(), problems.CheckReadersPriority, opts)
	if !plain.Found {
		t.Fatalf("plain DFS found nothing in %d runs", plain.Runs)
	}

	pruned := opts
	pruned.Prune = true
	fast := Run(figure1Program(), problems.CheckReadersPriority, pruned)
	if !fast.Found {
		t.Fatalf("pruned DFS found nothing in %d runs (pruned %d)", fast.Runs, fast.Pruned)
	}
	if fast.Err != nil {
		t.Fatalf("pruned DFS reported a kernel error: %v", fast.Err)
	}
	if fast.Runs*5 > plain.Runs {
		t.Fatalf("pruning saved too little: %d runs pruned vs %d plain (want >= 5x fewer)",
			fast.Runs, plain.Runs)
	}
	if fast.Pruned == 0 {
		t.Fatalf("pruned DFS reports Pruned = 0")
	}
	// The pruned finding must still replay to a real violation.
	tr, err := Replay(figure1Program(), fast.Schedule, 0)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if vs := problems.CheckReadersPriority(tr); len(vs) == 0 {
		t.Fatalf("pruned finding does not replay:\n%s", tr)
	}
}

// The prune audit cross-check must pass over the full T4 suite: for every
// mechanism x problem pairing, the unpruned DFS frontier surfaces no
// violation rule that the pruned search missed. Findings themselves are
// fine (a few pairings are known-imperfect; that is the paper's point) —
// only an audit failure is a bug in the pruning.
func TestPruneAuditT4Suite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite audit is slow")
	}
	for _, suite := range solutions.All() {
		for _, problem := range problems.AllProblems() {
			suite, problem := suite, problem
			t.Run(suite.Mechanism+"/"+problem, func(t *testing.T) {
				t.Parallel()
				strict := !(suite.Mechanism == "pathexpr" && problem == problems.NameReadersPriority)
				prog, check, err := solutions.StandardProgram(suite, problem, strict)
				if err != nil {
					t.Fatal(err)
				}
				res := Run(Program(prog), check, Options{
					RandomRuns: -1,
					DFSRuns:    150,
					DFSDepth:   16,
					Prune:      true,
					Audit:      true,
				})
				if errors.Is(res.Err, ErrAuditFailed) {
					t.Fatalf("prune audit failed: %v", res.Err)
				}
			})
		}
	}
}

// Prune is a throughput knob, not a semantics knob: pruned exploration is
// identical across worker counts (its pruning decisions are driver-side
// and canonical-order).
func TestPoolAndPruneDeterminism(t *testing.T) {
	oracle := Oracle(problems.CheckReadersPriority)
	base := Options{RandomRuns: 100, DFSRuns: 400, DFSDepth: 24}

	t.Run("prune-workers-independent", func(t *testing.T) {
		opts := base
		opts.Prune = true
		opts.Workers = 1
		seq := Run(figure1Program(), oracle, opts)
		opts.Workers = 8
		par := Run(figure1Program(), oracle, opts)
		if seq.Found != par.Found || seq.Runs != par.Runs || seq.Pruned != par.Pruned ||
			!reflect.DeepEqual(seq.Schedule, par.Schedule) {
			t.Fatalf("pruned result depends on Workers:\n  w=1: found=%v runs=%d pruned=%d\n  w=8: found=%v runs=%d pruned=%d",
				seq.Found, seq.Runs, seq.Pruned, par.Found, par.Runs, par.Pruned)
		}
		if !seq.Found {
			t.Fatalf("pruned search found nothing in %d runs", seq.Runs)
		}
	})

}

// Exploration parks recycled worker goroutines between runs; Run, with
// or without shrinking, must release them on exit (executor.close ->
// SimKernel.Close), and Replay's one-shot kernel must not leave its
// process goroutines behind, so repeated explorations and replays cannot
// accumulate goroutines.
func TestPoolNoGoroutineLeak(t *testing.T) {
	perRun := Program(func(k kernel.Kernel, r *trace.Recorder) {
		k.Spawn("stuck1", func(p *kernel.Proc) { p.Park() })
		k.Spawn("stuck2", func(p *kernel.Proc) { p.Yield(); p.Park() })
	})
	clean := func(trace.Trace) []problems.Violation { return nil }
	base := runtime.NumGoroutine()
	for i := 0; i < 500; i++ {
		res := Run(perRun, clean, Options{RandomRuns: 2, DFSRuns: 2, Workers: 4})
		if !res.Found || !errors.Is(res.Err, kernel.ErrDeadlock) {
			t.Fatalf("run %d: res = %+v", i, res)
		}
		if _, err := Replay(perRun, res.Schedule, 0); !errors.Is(err, kernel.ErrDeadlock) {
			t.Fatalf("replay %d: err = %v", i, err)
		}
		shrunk := Run(perRun, clean, Options{RandomRuns: 2, DFSRuns: 2, Workers: 4, Shrink: true})
		if shrunk.ShrinkRuns == 0 {
			t.Fatalf("run %d: shrink ran no replays: %+v", i, shrunk)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: started with %d, still %d after 500 explorations, replays and shrinks",
				base, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A Reset kernel and recorder must be indistinguishable from fresh ones:
// for every T4 mechanism x problem pairing and a table of seeds, a reused
// (Reset between runs) kernel — in both plain and WithRecycle modes —
// produces byte-identical traces to a fresh kernel per run.
func TestResetReusedTracesIdentical(t *testing.T) {
	seeds := []int64{1, 2, 3, 7, 42}
	for _, mode := range []struct {
		name    string
		options []kernel.SimOption
	}{
		{"plain", nil},
		{"recycle", []kernel.SimOption{kernel.WithRecycle()}},
	} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			for _, suite := range solutions.All() {
				for _, problem := range problems.AllProblems() {
					prog, _, err := solutions.StandardProgram(suite, problem, false)
					if err != nil {
						t.Fatal(err)
					}
					reused := kernel.NewSim(mode.options...)
					rr := trace.NewRecorder(reused)
					for _, seed := range seeds {
						fresh := kernel.NewSim(kernel.WithPolicy(kernel.Random(seed)))
						fr := trace.NewRecorder(fresh)
						prog(fresh, fr)
						freshErr := fresh.Run()

						reused.Reset(kernel.WithPolicy(kernel.Random(seed)))
						rr.Reset()
						prog(reused, rr)
						reusedErr := reused.Run()

						if (freshErr == nil) != (reusedErr == nil) {
							t.Fatalf("%s/%s seed %d: fresh err %v, reused err %v",
								suite.Mechanism, problem, seed, freshErr, reusedErr)
						}
						want, got := fr.Events(), rr.Events()
						if !reflect.DeepEqual(want, got) {
							t.Fatalf("%s/%s seed %d: reused trace diverged\nfresh:\n%s\nreused:\n%s",
								suite.Mechanism, problem, seed, want, got)
						}
					}
					reused.Close()
				}
			}
		})
	}
}
