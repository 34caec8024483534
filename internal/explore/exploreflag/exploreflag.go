// Package exploreflag registers the schedule-exploration flags that the
// command-line tools share (-workers -prune -dpor -dpor-audit -shrink
// -progress) and renders the live progress line, so every tool spells,
// documents and reports them the same way.
package exploreflag

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/explore"
)

// Flags holds the parsed values of the shared exploration flags.
type Flags struct {
	workers   *int
	prune     *bool
	dpor      *bool
	dporAudit *bool
	shrink    *bool
	progress  *bool
}

// Register defines the shared exploration flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		workers:   fs.Int("workers", 0, "goroutines per schedule exploration (0 = all cores; results are identical for any value)"),
		prune:     fs.Bool("prune", false, "prune schedule exploration via state fingerprints (reaches findings in fewer runs, so reported run counts shrink)"),
		dpor:      fs.Bool("dpor", false, "reduce schedule exploration by dynamic partial-order reduction (backtrack only where happens-before analysis demands; reports schedule-space coverage)"),
		dporAudit: fs.Bool("dpor-audit", false, "run every exploration reduced and unreduced and fail on any missed violation rule (implies -dpor)"),
		shrink:    fs.Bool("shrink", false, "minimize every exploration finding by delta debugging (1-minimal schedule)"),
		progress:  fs.Bool("progress", false, "print a one-line live exploration status to stderr"),
	}
}

// Options returns the engine settings the flags select; budgets are left
// to the caller. With -progress, Progress renders ProgressLine on stderr.
func (f *Flags) Options() explore.Options {
	o := explore.Options{
		Workers: *f.workers,
		Prune:   *f.prune,
		DPOR:    *f.dpor || *f.dporAudit,
		Audit:   *f.dporAudit,
		Shrink:  *f.shrink,
	}
	if *f.progress {
		o.Progress = ProgressLine(os.Stderr)
	}
	return o
}

// ProgressLine renders Stats snapshots to w as a single overwritten
// line, throttled so rendering never slows the search; the final
// ("done") snapshot always renders and ends the line.
func ProgressLine(w io.Writer) func(explore.Stats) {
	var last time.Time
	return func(s explore.Stats) {
		if s.Phase != "done" && time.Since(last) < 100*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintf(w,
			"\rexplore: phase=%-8s runs=%-7d %6.0f/s pruned=%-6d frontier=%-4d shrink=%d(len %d) pool=%d/%d wasted=%d   ",
			s.Phase, s.Runs, s.RunsPerSec, s.Pruned, s.Frontier,
			s.ShrinkRuns, s.ShrinkLen, s.PoolReuses, s.PoolSlots, s.Executed-s.Runs-s.ShrinkRuns)
		if s.Phase == "done" {
			fmt.Fprintln(w)
		}
	}
}
