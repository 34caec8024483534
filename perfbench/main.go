// Command perfbench is the repository's benchmark: three workloads
// (suite, deep, load) measured end to end, and with --trace 1 a per-layer
// ledger of where the time goes. It uses only the packages' public entry
// points and times every layer from outside, around the calls into it.
//
//	go run . --workload suite --seed 26 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
// With --trace 0 the metrics are the end-to-end ones of the named
// workload; with --trace 1 they are the per-layer ledger. Lines before
// it are a human-readable header and report. The exit status is 1 on
// any verdict mismatch, replay failure or failed load operation, and 2
// on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	root     string
	b        budgets
}

// outcomeLine is the result line.
type outcomeLine struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "suite", "workload: suite, deep or load")
	seed := fs.Int64("seed", 26, "input seed: picks the synth window and the load traffic")
	secs := fs.Float64("seconds", 30, "how long the measured phase runs (whole passes; at least one)")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: the per-layer ledger")
	quick := fs.Bool("quick", false, "tiny budgets for the smoke test; verdict pins are not enforced")
	root := fs.String("root", ".", "repository root, for the source digest in the header")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	switch *workload {
	case "suite", "deep", "load":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (suite, deep, load)\n", *workload)
		return 2
	}
	cfg := config{
		workload: *workload, seed: *seed, seconds: *secs,
		trace: *traceFlag == 1, quick: *quick, root: *root, b: fullBudgets,
	}
	if cfg.quick {
		cfg.b = quickBudgets
	}

	for _, line := range header(cfg) {
		fmt.Fprintln(stdout, "# "+line)
	}
	rep := &report{w: stdout}
	w := cfg.workload
	if cfg.trace {
		w = "ledger"
	}
	g, m := &gate{}, metricSet{}
	var err error
	switch w {
	case "ledger":
		err = runLedger(cfg, g, m, rep)
	case "load":
		err = runLoad(cfg, g, m, rep)
	default:
		err = runSim(cfg, w, g, m, rep)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w, err)
		return 1
	}
	for _, p := range g.problems {
		fmt.Fprintln(stdout, "FAIL "+p)
	}
	rep.printf("%s: failed_share %g (%d of %d checks failed)", w, ratio(float64(g.failed), float64(g.attempted)), g.failed, g.attempted)
	out := outcomeLine{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: m}
	for _, name := range sortedNames(m) {
		rep.printf("%s %s = %.6g %s", w, name, m[name].Value, m[name].Unit)
	}
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func sortedNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// report prints the human-readable lines that precede the result.
type report struct{ w io.Writer }

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.w, format+"\n", args...)
}

// measureSetup runs build at least minSetups times and until half a
// second has passed, and returns the median duration in seconds; the
// last build's product is the one the workload uses.
func measureSetup(build func() error) (float64, error) {
	const minSetups, maxSetups, minTime = 9, 200, 500 * time.Millisecond
	var xs []float64
	start := time.Now()
	for len(xs) < minSetups || (len(xs) < maxSetups && time.Since(start) < minTime) {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(t0).Seconds())
	}
	return median(xs), nil
}

// until runs step at least once and then again while the elapsed time
// is below secs.
func until(secs float64, step func()) {
	start := time.Now()
	for first := true; first || time.Since(start).Seconds() < secs; first = false {
		step()
	}
}

func fmtList(xs []float64, unit string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ") + " " + unit
}
