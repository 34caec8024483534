package explore

import (
	"encoding/json"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions/monitorsol"
	"repro/internal/trace"
)

// Two identical hunts produce byte-identical Result.Stats — the pin for
// the deterministic-core/live-view split: no wall-clock or pool state
// can leak into a Result.
func TestResultStatsBytesIdentical(t *testing.T) {
	prog := Program(func(k kernel.Kernel, r *trace.Recorder) {
		rwScenario(monitorsol.NewReadersPriority())(k, r)
	})
	opts := Options{RandomRuns: 20, DFSRuns: 100, Prune: true, Shrink: true, DPOR: true}
	a := Run(prog, problems.CheckReadersPriority, opts)
	b := Run(prog, problems.CheckReadersPriority, opts)
	if a.Stats != b.Stats {
		t.Fatalf("Result.Stats differ between identical hunts:\n%+v\n%+v", a.Stats, b.Stats)
	}
	ab, err := json.Marshal(a.Stats)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := json.Marshal(b.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("Result.Stats bytes differ:\n%s\n%s", ab, bb)
	}
}
