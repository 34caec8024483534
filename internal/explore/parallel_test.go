package explore

import (
	"testing"

	"repro/internal/problems"
	"repro/internal/trace"
)

// Stats.Executed counts every run any worker executed. With one worker
// nothing is speculative, so it is exactly Runs + ShrinkRuns. With more,
// the excess is the wasted speculation: runs still uncommitted when the
// search ended, at most the bound on uncommitted outcomes, plus, with
// DPOR and Prune, forecasts that did not come true (dporState.predict)
// and the forecasts below them — a few percent of the runs.
func TestSpeculationWaste(t *testing.T) {
	never := func(trace.Trace) []problems.Violation { return nil }
	cases := []struct {
		name   string
		oracle Oracle
		opts   Options
	}{
		{"random-phase-finding", problems.CheckReadersPriority,
			Options{RandomRuns: 300, DFSRuns: 600, Shrink: true}},
		{"dfs-finding", problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, Shrink: true}},
		{"dpor-finding", problems.CheckReadersPriority,
			Options{RandomRuns: -1, DFSRuns: 2000, DFSDepth: 24, Prune: true, DPOR: true, Shrink: true}},
		{"budget-exhausted", never,
			Options{RandomRuns: 20, DFSRuns: 300, Prune: true, DPOR: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 8} {
				var last Stats
				opts := tc.opts
				opts.Workers = w
				opts.Progress = func(s Stats) { last = s }
				res := Run(figure1Program(), tc.oracle, opts)
				waste := last.Executed - res.Runs - res.ShrinkRuns
				limit := 0
				if w > 1 {
					limit = (speculation+verdictLag)*w + res.Runs/5
				}
				if waste < 0 || waste > limit {
					t.Fatalf("Workers=%d: executed %d, runs %d, shrink runs %d: waste %d, want 0..%d",
						w, last.Executed, res.Runs, res.ShrinkRuns, waste, limit)
				}
			}
		})
	}
}
