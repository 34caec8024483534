package problems_test

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/kernel"
	"repro/internal/problems"
	"repro/internal/solutions"
	"repro/internal/trace"
)

// vkey is what the priority oracles must agree on: which rule broke, and
// at which event. Details are phrased differently and the order differs.
type vkey struct {
	rule string
	seq  int64
}

func keys(vs []problems.Violation) []vkey {
	out := make([]vkey, len(vs))
	for i, v := range vs {
		out[i] = vkey{v.Rule, v.Seq}
	}
	slices.SortFunc(out, func(a, b vkey) int {
		return cmp.Or(cmp.Compare(a.rule, b.rule), cmp.Compare(a.seq, b.seq))
	})
	return out
}

// priorityOracles pairs each direction's sweep with its interval-based
// reference.
var priorityOracles = []struct {
	name      string
	got, want func(trace.Trace) []problems.Violation
}{
	{problems.NameReadersPriority, problems.CheckReadersPriority, problems.ReferenceReadersPriority},
	{problems.NameWritersPriority, problems.CheckWritersPriority, problems.ReferenceWritersPriority},
}

// agree fails t unless both directions' sweeps report the reference's
// (Rule, Seq) multiset on tr, in ascending Seq order, and report an
// instrumentation violation exactly when interval reconstruction fails.
// It returns the number of violations the sweeps reported.
func agree(t testing.TB, tr trace.Trace, what string) int {
	t.Helper()
	_, ivErr := tr.Intervals()
	n := 0
	for _, o := range priorityOracles {
		got := o.got(tr)
		if g, w := keys(got), keys(o.want(tr)); !slices.Equal(g, w) {
			t.Fatalf("%s, %s oracle: sweep %v, reference %v\n%s", what, o.name, g, w, tr)
		}
		for i := 1; i < len(got); i++ {
			if got[i].Seq < got[i-1].Seq {
				t.Fatalf("%s, %s oracle: violations out of Seq order: %v", what, o.name, got)
			}
		}
		if ivErr != nil {
			if len(got) != 1 || got[0].Rule != "instrumentation" || got[0].Detail != ivErr.Error() {
				t.Fatalf("%s, %s oracle: Intervals fails (%v) but the sweep reports %v", what, o.name, ivErr, got)
			}
		} else {
			for _, v := range got {
				if v.Rule == "instrumentation" {
					t.Fatalf("%s, %s oracle: well-formed trace reported as %v", what, o.name, v)
				}
			}
		}
		n += len(got)
	}
	return n
}

// record runs one readers–writers workload under a seeded random
// schedule and returns its trace; a deadlocked or cut-off run still
// yields the history up to that point.
func record(s solutions.Suite, problem string, cfg problems.RWConfig, seed int64) trace.Trace {
	newDB, _ := solutions.RWConstructor(s, problem)
	k := kernel.NewSim(kernel.WithPolicy(kernel.Random(seed)))
	r := trace.NewRecorder(k)
	_ = problems.SpawnRW(k, newDB(k), r, cfg) // cfg is valid
	_ = k.Run()
	return r.Events()
}

// The priority oracles agree with the interval-based reference on every
// trace the solution library produces: all eight suites on every
// readers–writers variant, two workloads, 150 random schedules each, on
// the full trace and on a half and a third of it (a cut-off history
// leaves requests waiting), in both rule directions.
func TestNoOvertakingMatchesReference(t *testing.T) {
	suites := append(solutions.All(), solutions.Variants()...)
	configs := []problems.RWConfig{
		solutions.StdRWConfig(),
		{Readers: 3, Writers: 2, Rounds: 1, ReadYields: 6, WriteYields: 1, GapYields: 1},
	}
	total := 0
	for _, s := range suites {
		for _, problem := range []string{problems.NameReadersPriority, problems.NameWritersPriority, problems.NameFCFSRW} {
			for ci, cfg := range configs {
				for seed := int64(1); seed <= 150; seed++ {
					tr := record(s, problem, cfg, seed)
					for _, cut := range []int{len(tr), len(tr) / 2, len(tr) / 3} {
						what := fmt.Sprintf("%s/%s config %d seed %d prefix %d/%d", s.Mechanism, problem, ci, seed, cut, len(tr))
						total += agree(t, tr[:cut], what)
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("the corpus produced no priority violation; the agreement is vacuous")
	}
}

// Fuzz-input encoding: one byte per event, Seq = position + 1. Bits 0–1
// pick one of four processes, bits 2–3 the op (read, write, or another
// op), bits 4–5 the kind (Request, Enter, Exit, Mark). Every byte string
// is a trace, most of them malformed.
var (
	fuzzOps   = [4]string{problems.OpRead, problems.OpWrite, "other", "other"}
	fuzzProcs = [4]string{"p#0", "p#1", "p#2", "p#3"}
)

func decodeTrace(data []byte) trace.Trace {
	tr := make(trace.Trace, len(data))
	for i, b := range data {
		proc := int(b & 3)
		tr[i] = trace.Event{
			Seq:    int64(i + 1),
			ProcID: proc,
			Proc:   fuzzProcs[proc],
			Op:     fuzzOps[b>>2&3],
			Kind:   trace.Kind(b >> 4 & 3),
		}
		if tr[i].Kind == trace.KindMark {
			tr[i].Op = ""
		}
	}
	return tr
}

func encodeTrace(tr trace.Trace) []byte {
	out := make([]byte, len(tr))
	for i, e := range tr {
		op := byte(2)
		switch e.Op {
		case problems.OpRead:
			op = 0
		case problems.OpWrite:
			op = 1
		}
		out[i] = byte(e.ProcID&3) | op<<2 | byte(e.Kind&3)<<4
	}
	return out
}

// FuzzNoOvertaking holds the priority oracles to the interval-based
// reference on arbitrary event sequences over four processes, malformed
// orders included: same (Rule, Seq) multiset in both directions, an
// instrumentation violation exactly when trace.Intervals fails, and no
// panic. Seeded from recorded readers–writers traces.
func FuzzNoOvertaking(f *testing.F) {
	cfg := problems.RWConfig{Readers: 2, Writers: 2, Rounds: 2, ReadYields: 1, WriteYields: 1, GapYields: 1}
	for _, s := range solutions.All() {
		for _, problem := range []string{problems.NameReadersPriority, problems.NameWritersPriority} {
			for seed := int64(1); seed <= 2; seed++ {
				f.Add(encodeTrace(record(s, problem, cfg, seed)))
			}
		}
	}
	f.Add([]byte{0x20})                   // exit without enter
	f.Add([]byte{0x00, 0x15, 0x25, 0x16}) // a write overtakes a waiting read after a release
	f.Fuzz(func(t *testing.T, data []byte) {
		agree(t, decodeTrace(data), fmt.Sprintf("input %x", data))
	})
}
