package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks
// the output against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at tiny budgets, untraced and traced, and
// checks the result line: the gate passed, and the metrics are exactly
// the ones BENCHMARK.json names, each with its unit and a finite value.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []string{"0", "1"} {
			want := spec.EndToEnd
			if traced == "1" {
				if w.Name != spec.Workloads[0].Name {
					continue // the ledger is the same whichever workload is named
				}
				want = spec.PerLayer
			}
			t.Run(w.Name+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--quick", "--root", "..", "--seconds", "0", "--seed", "7",
					"--workload", w.Name, "--trace", traced}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				for _, key := range []string{"# revision: ", "# source: ", "# nproc: ", "# cpu: ", "# go: "} {
					if !strings.Contains(stdout.String(), key) {
						t.Errorf("header lacks %q", key)
					}
				}
				var out outcomeLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, lines[len(lines)-1])
				}
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Errorf("gate: correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(out.Metrics), len(want))
				}
				for _, sm := range want {
					got, ok := out.Metrics[sm.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", sm.Name)
					case got.Unit != sm.Unit:
						t.Errorf("metric %s: unit %q, want %q", sm.Name, got.Unit, sm.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s: value %v", sm.Name, got.Value)
					}
				}
			})
		}
	}
}

// The gate must reject a verdict that differs from its pin.
func TestVerifyRejectsPinMismatch(t *testing.T) {
	cells, err := deepCells(quickBudgets)
	if err != nil {
		t.Fatal(err)
	}
	cells = cells[:1]
	p := explorePass(cells, 1)
	cells[0].want = "fail:made-up"
	g := &gate{}
	verify(g, cells, p, true)
	if g.failed != 1 {
		t.Fatalf("failed = %d, want 1 (problems: %v)", g.failed, g.problems)
	}
}
