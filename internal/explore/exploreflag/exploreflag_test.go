package exploreflag

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"repro/internal/explore"
)

// The shared flags map one to one onto the engine settings, and the
// tools accept no retired knobs.
func TestRegisterOptions(t *testing.T) {
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-workers", "3", "-prune", "-dpor", "-dpor-audit", "-shrink"}); err != nil {
		t.Fatal(err)
	}
	o := f.Options()
	if o.Workers != 3 || !o.Prune || !o.DPOR || !o.Audit || !o.Shrink || o.Progress != nil {
		t.Fatalf("options = %+v", o)
	}
	// -dpor-audit alone turns the reduction on as well as its audit.
	fs = flag.NewFlagSet("tool", flag.ContinueOnError)
	f = Register(fs)
	if err := fs.Parse([]string{"-dpor-audit"}); err != nil {
		t.Fatal(err)
	}
	if o := f.Options(); !o.DPOR || !o.Audit || o.Prune {
		t.Fatalf("-dpor-audit options = %+v", o)
	}
	for _, retired := range []string{"pool", "checkpoint"} {
		if fs.Lookup(retired) != nil {
			t.Errorf("-%s is still registered", retired)
		}
	}
}

// One renderer serves every tool: the line carries every live field,
// and the final snapshot ends it.
func TestProgressLineFields(t *testing.T) {
	var buf bytes.Buffer
	render := ProgressLine(&buf)
	s := explore.Stats{PoolSlots: 2, PoolReuses: 40, Executed: 45}
	s.Phase, s.Runs, s.ShrinkRuns = "done", 40, 3
	render(s)
	line := buf.String()
	for _, want := range []string{"phase=done", "runs=40", "shrink=3", "pool=40/2", "wasted=2"} {
		if !strings.Contains(line, want) {
			t.Errorf("progress line %q lacks %q", line, want)
		}
	}
	if !strings.HasSuffix(line, "\n") {
		t.Errorf("final progress line %q does not end the line", line)
	}
}
