package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/load"
)

// FuzzParseBench feeds arbitrary text to the bench-output parser and to
// ingestBench, which archives what parse accepts. Neither may panic; an
// accepted report carries at least one benchmark, every one named.
func FuzzParseBench(f *testing.F) {
	f.Add(sample)
	f.Add("PASS\nok  \trepro\t1.2s\n")
	f.Add("BenchmarkX-8 223 5347102 ns/op extra\n")
	f.Add("BenchmarkX-8 223 NaN ns/op\n")
	f.Add("BenchmarkE1DeepDFS/pooled-2 286 7549304 ns/op 8610 schedules/sec 3456432 B/op 24412 allocs/op\n")
	f.Fuzz(func(t *testing.T, in string) {
		rep, perr := parse(bufio.NewScanner(strings.NewReader(in)))
		out, err := ingestBench(strings.NewReader(in), "")
		if err != nil {
			return
		}
		if perr != nil {
			t.Fatalf("ingestBench accepted what parse rejects (%v)", perr)
		}
		var got Report
		if err := json.Unmarshal(out, &got); err != nil {
			t.Fatalf("accepted report does not decode: %v\n%s", err, out)
		}
		if len(got.Benchmarks) == 0 || len(got.Benchmarks) != len(rep.Benchmarks) {
			t.Fatalf("accepted report has %d benchmarks, parse found %d", len(got.Benchmarks), len(rep.Benchmarks))
		}
		for i, b := range got.Benchmarks {
			if b.Name == "" {
				t.Fatalf("benchmark %d has no name: %+v", i, b)
			}
		}
	})
}

// FuzzIngestLoad feeds arbitrary bytes to the load-report ingester, as
// one JSON document or an NDJSON soak stream. It must not panic, and
// what it accepts and archives must pass load validation when read
// back.
func FuzzIngestLoad(f *testing.F) {
	report := `{"schema":"repro-load/v1","runs":[{"mechanism":"m","problem":"p","arrival":"poisson",` +
		`"seed":1,"elapsed_ns":1,"issued":1,"completed":1,"throughput_ops_sec":1,"judged":false,` +
		`"classes":[{"name":"use","issued":1,"completed":1,"completed_share":1,"issued_share":1,` +
		`"wait":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]},` +
		`"total":{"count":1,"p50_ns":5,"p90_ns":5,"p99_ns":5,"max_ns":5,"mean_ns":5,"buckets":[{"index":5,"count":1}]}}]}]}`
	snapshot := strings.Replace(report, `"seed":1`, `"snapshot_seq":1,"seed":1`, 1)
	f.Add([]byte(report))
	f.Add([]byte(snapshot + "\n" + report + "\n"))
	f.Add([]byte(`{"schema":"repro-load/v1","runs":[]}`))
	f.Add([]byte("{}\n{}\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		out, err := ingestLoad(bytes.NewReader(in))
		if err != nil {
			return
		}
		var rep load.Report
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("archived report does not decode: %v\n%s", err, out)
		}
		if err := rep.Validate(); err != nil {
			t.Fatalf("archived report fails validation: %v\n%s", err, out)
		}
	})
}
