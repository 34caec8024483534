package problems

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/trace"
)

// The readers–writers family is the paper's central example. The
// readers-priority database [8] is the footnote-2 test case for *request
// type* and *synchronization state*; the writers-priority and FCFS
// variants exist for the §4.2 independence analysis: all three share the
// "rw-exclusion" constraint and differ only in the priority constraint.

// OpRead and OpWrite are the database's operation names in traces.
const (
	OpRead  = "read"
	OpWrite = "write"
)

// rwExclusion is the constraint shared verbatim by all three variants.
func rwExclusion() core.Constraint {
	return core.Constraint{
		ID:   "rw-exclusion",
		Kind: core.Exclusion,
		Uses: []core.InfoType{core.RequestType, core.SyncState},
		Desc: "if a writer is active then exclude everyone; if a reader is active then exclude writers",
	}
}

// ReadersPrioritySpec: readers are admitted in preference to waiting
// writers (Courtois–Heymans–Parnas problem 1; writers may starve).
func ReadersPrioritySpec() core.Scheme {
	return core.Scheme{
		Name: NameReadersPriority,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "readers-priority",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestType},
				Desc: "if readers and writers are waiting then readers have priority over writers",
			},
		},
	}
}

// WritersPrioritySpec: writers are admitted in preference to waiting
// readers (CHP problem 2; readers may starve).
func WritersPrioritySpec() core.Scheme {
	return core.Scheme{
		Name: NameWritersPriority,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "writers-priority",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestType},
				Desc: "if readers and writers are waiting then writers have priority over readers",
			},
		},
	}
}

// FCFSRWSpec: requests are admitted strictly in arrival order (reads
// still share). Same exclusion constraint; the priority constraint uses
// request time instead of request type.
func FCFSRWSpec() core.Scheme {
	return core.Scheme{
		Name: NameFCFSRW,
		Constraints: []core.Constraint{
			rwExclusion(),
			{
				ID:   "rw-fcfs",
				Kind: core.Priority,
				Uses: []core.InfoType{core.RequestTime},
				Desc: "if A requested before B then A is admitted before B",
			},
		},
	}
}

// RWStore is the database interface a solution implements: body runs
// while the operation is admitted.
type RWStore interface {
	Read(p *kernel.Proc, body func())
	Write(p *kernel.Proc, body func())
}

// RWConfig parameterizes the readers–writers workload.
type RWConfig struct {
	Readers     int
	Writers     int
	Rounds      int // operations per process
	ReadYields  int // body length of a read
	WriteYields int // body length of a write
	GapYields   int // pause between a process's operations
}

// SpawnRW spawns the workload processes against db on k, recording
// into r; the caller runs the kernel.
func SpawnRW(k kernel.Kernel, db RWStore, r *trace.Recorder, cfg RWConfig) error {
	for i := 0; i < cfg.Readers; i++ {
		k.Spawn("reader", func(p *kernel.Proc) {
			for j := 0; j < cfg.Rounds; j++ {
				r.Request(p, OpRead, trace.NoArg)
				db.Read(p, func() {
					r.Enter(p, OpRead, trace.NoArg)
					for y := 0; y < cfg.ReadYields; y++ {
						p.Yield()
					}
					r.Exit(p, OpRead, trace.NoArg)
				})
				for y := 0; y < cfg.GapYields; y++ {
					p.Yield()
				}
			}
		})
	}
	for i := 0; i < cfg.Writers; i++ {
		k.Spawn("writer", func(p *kernel.Proc) {
			for j := 0; j < cfg.Rounds; j++ {
				r.Request(p, OpWrite, trace.NoArg)
				db.Write(p, func() {
					r.Enter(p, OpWrite, trace.NoArg)
					for y := 0; y < cfg.WriteYields; y++ {
						p.Yield()
					}
					r.Exit(p, OpWrite, trace.NoArg)
				})
				for y := 0; y < cfg.GapYields; y++ {
					p.Yield()
				}
			}
		})
	}
	return nil
}

// DriveRW spawns the workload via SpawnRW and returns the kernel's
// verdict from running it to completion.
func DriveRW(k kernel.Kernel, db RWStore, r *trace.Recorder, cfg RWConfig) error {
	if err := SpawnRW(k, db, r, cfg); err != nil {
		return err
	}
	return k.Run()
}

// CheckRWExclusion judges the shared exclusion constraint: writes overlap
// nothing; reads may overlap reads.
func CheckRWExclusion(tr trace.Trace) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	return rwOverlaps(ivs)
}

func rwOverlaps(ivs []trace.Interval) []Violation {
	return overlapViolations("rw-exclusion", ivs,
		func(a, b string) bool { return a == OpRead && b == OpRead })
}

// CheckReadersPriority judges the readers-priority constraint: once a
// reader has requested, no writer may be admitted before that reader.
// (A reader waits only for a writer that was *already admitted* when the
// reader arrived — the CHP problem-1 statement. The Figure-1 anomaly of
// the paper's footnote 3 is exactly a violation of this rule.)
//
// Exact on deterministic traces; see CheckFCFS for the real-kernel caveat.
func CheckReadersPriority(tr trace.Trace) []Violation {
	return noOvertaking(tr, OpRead, OpWrite, "readers-priority")
}

// CheckWritersPriority is the symmetric judgement: once a writer has
// requested, no reader may be admitted before it.
func CheckWritersPriority(tr trace.Trace) []Violation {
	return noOvertaking(tr, OpWrite, OpRead, "writers-priority")
}

// waitingReq is a favored request not yet admitted, with the first
// release recorded after it (0 while there is none).
type waitingReq struct {
	procID  int
	proc    string
	reqSeq  int64
	release int64
}

// openExec is one Enter not yet matched by an Exit.
type openExec struct {
	procID int
	op     string
}

// noOvertaking reports every case where an operation of op loser was
// *granted* admission while a favored-op request was waiting.
//
// Grant moments are not directly observable in a trace: a mechanism hands
// the resource over at a release point, and the admitted process records
// its Enter only when it next runs. A loser Enter between the favored
// request and its admission is therefore a violation only if some release
// (an Exit of either operation) occurred after the favored process was
// already waiting — otherwise the grant decision predates the favored
// request and no priority rule was broken. The paper's footnote-3 anomaly
// satisfies this rule (the first writer's completion is the release at
// which the second writer is wrongly preferred). A favored request never
// admitted by trace end waited forever: every later loser admission past
// a release overtook it.
//
// The judgement is one pass over the trace, without reconstructing
// intervals: it keeps the favored requests still waiting, each with the
// first release after it, and at every loser Enter reports each waiting
// request that has one. Requests match Enters per process in FIFO order,
// as in trace.Intervals. An Exit with no open Enter of the same process
// and op is the malformation Intervals rejects; it is reported, with the
// same detail, as the only violation. Violations come out in ascending
// Seq order.
func noOvertaking(tr trace.Trace, favored, loser, rule string) []Violation {
	var (
		waiting []waitingReq
		open    []openExec
		out     []Violation
	)
	for _, e := range tr {
		switch e.Kind {
		case trace.KindRequest:
			if e.Op == favored {
				waiting = append(waiting, waitingReq{procID: e.ProcID, proc: e.Proc, reqSeq: e.Seq})
			}
		case trace.KindEnter:
			open = append(open, openExec{e.ProcID, e.Op})
			switch e.Op {
			case favored:
				// Admitted: the process's oldest waiting request is
				// served. Order is kept, so requests without a release
				// stay a suffix of waiting.
				for i, w := range waiting {
					if w.procID == e.ProcID {
						waiting = append(waiting[:i], waiting[i+1:]...)
						break
					}
				}
			case loser:
				for _, w := range waiting {
					if w.release != 0 {
						out = append(out, Violation{
							Rule: rule,
							Detail: fmt.Sprintf("%s %s enter@%d admitted while %s %s was waiting (requested @%d, window opened by release @%d)",
								e.Proc, e.Op, e.Seq, w.proc, favored, w.reqSeq, w.release),
							Seq: e.Seq,
						})
					}
				}
			}
		case trace.KindExit:
			i := len(open) - 1
			for i >= 0 && (open[i].procID != e.ProcID || open[i].op != e.Op) {
				i--
			}
			if i < 0 {
				return []Violation{{Rule: "instrumentation",
					Detail: fmt.Sprintf("trace: exit without enter: %s", e)}}
			}
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
			if e.Op == OpRead || e.Op == OpWrite {
				for j := len(waiting) - 1; j >= 0 && waiting[j].release == 0; j-- {
					waiting[j].release = e.Seq
				}
			}
		}
	}
	return out
}

// CheckFCFSRW judges the FCFS variant: admissions occur strictly in
// request order, subject to the same release-window rule as
// noOvertaking (see there). Read–read pairs are exempt: two reads
// are admitted into a shared phase, so their relative Enter order is a
// recording artifact (a Hoare signal cascade grants a batch of readers
// FIFO but they record their Enters in scheduler order), not an
// admission decision.
func CheckFCFSRW(tr trace.Trace) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	return fcfsRWInversions(tr, ivs)
}

func fcfsRWInversions(tr trace.Trace, ivs []trace.Interval) []Violation {
	var out []Violation
	for _, iv := range ivs {
		if iv.RequestSeq == 0 {
			out = append(out, Violation{Rule: "instrumentation",
				Detail: fmt.Sprintf("%s has no request event", iv), Seq: iv.EnterSeq})
		}
	}
	exits := releaseSeqs(tr, OpRead, OpWrite)
	out = append(out, orderInversionsFiltered("rw-fcfs", ivs, exits,
		func(a, b trace.Interval) bool { return a.Op == OpRead && b.Op == OpRead })...)
	return out
}

// orderInversions reports pairs admitted out of request order where a
// release fell inside the waiting window.
func orderInversions(rule string, ivs []trace.Interval, exits []int64) []Violation {
	return orderInversionsFiltered(rule, ivs, exits, nil)
}

// orderInversionsFiltered is orderInversions with an exemption predicate:
// pairs for which exempt(waiting, jumped) is true are not reported.
func orderInversionsFiltered(rule string, ivs []trace.Interval, exits []int64, exempt func(a, b trace.Interval) bool) []Violation {
	var out []Violation
	for _, waiting := range ivs { // the earlier-requested interval
		if waiting.RequestSeq == 0 {
			continue
		}
		// A waiter never admitted by trace end waited forever; any later
		// request that did get in jumped it (see enterOrEnd).
		wEnter := enterOrEnd(waiting)
		for _, jumped := range ivs { // the one that entered first
			if jumped.RequestSeq == 0 || jumped.RequestSeq <= waiting.RequestSeq || !jumped.Started() {
				continue
			}
			if exempt != nil && exempt(waiting, jumped) {
				continue
			}
			if jumped.EnterSeq < wEnter &&
				anyInWindow(exits, waiting.RequestSeq, jumped.EnterSeq) {
				out = append(out, Violation{
					Rule:   rule,
					Detail: fmt.Sprintf("%s admitted before earlier request %s", jumped, waiting),
					Seq:    jumped.EnterSeq,
				})
			}
		}
	}
	return out
}

// CheckRW composes the exclusion check with the variant's priority check.
// Intervals are reconstructed once; a malformed trace is reported once.
func CheckRW(problem string, tr trace.Trace, checkPriority bool) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	out := rwOverlaps(ivs)
	if !checkPriority {
		return out
	}
	switch problem {
	case NameReadersPriority:
		out = append(out, CheckReadersPriority(tr)...)
	case NameWritersPriority:
		out = append(out, CheckWritersPriority(tr)...)
	case NameFCFSRW:
		out = append(out, fcfsRWInversions(tr, ivs)...)
	}
	return out
}
