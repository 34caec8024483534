package problems

import (
	"fmt"

	"repro/internal/trace"
)

// The interval-based priority oracle that CheckReadersPriority and
// CheckWritersPriority replaced, kept as the reference they are pinned
// against (TestNoOvertakingMatchesReference, FuzzNoOvertaking): both must
// report the same (Rule, Seq) multiset on every trace.

// ReferenceReadersPriority is the interval-based readers-priority oracle.
func ReferenceReadersPriority(tr trace.Trace) []Violation {
	return checkNoOvertaking(tr, OpRead, OpWrite, "readers-priority")
}

// ReferenceWritersPriority is the interval-based writers-priority oracle.
func ReferenceWritersPriority(tr trace.Trace) []Violation {
	return checkNoOvertaking(tr, OpWrite, OpRead, "writers-priority")
}

// checkNoOvertaking reports every case where an interval of op loser was
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
// which the second writer is wrongly preferred).
func checkNoOvertaking(tr trace.Trace, favored, loser, rule string) []Violation {
	ivs, vs := requireIntervals(tr)
	if vs != nil {
		return vs
	}
	exits := releaseSeqs(tr, OpRead, OpWrite)
	var out []Violation
	for _, f := range ivs {
		if f.Op != favored || f.RequestSeq == 0 {
			continue
		}
		// A favored waiter never admitted by trace end (Started() false)
		// waited forever: every later loser admission overtook it.
		fEnter := enterOrEnd(f)
		for _, l := range ivs {
			if l.Op != loser || !l.Started() {
				continue
			}
			if l.EnterSeq > f.RequestSeq && l.EnterSeq < fEnter &&
				anyInWindow(exits, f.RequestSeq, l.EnterSeq) {
				admitted := fmt.Sprintf("admitted @%d", f.EnterSeq)
				if !f.Started() {
					admitted = "never admitted"
				}
				out = append(out, Violation{
					Rule: rule,
					Detail: fmt.Sprintf("%s admitted while %s was waiting (requested @%d, %s)",
						l, f, f.RequestSeq, admitted),
					Seq: l.EnterSeq,
				})
			}
		}
	}
	return out
}
