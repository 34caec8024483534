package problems

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// tb builds traces directly for oracle tests: each spec is
// "proc:kind:op:arg"; seq is the position.
func tb(t *testing.T, specs ...string) trace.Trace {
	t.Helper()
	var tr trace.Trace
	for i, s := range specs {
		parts := strings.Split(s, ":")
		if len(parts) < 3 {
			t.Fatalf("bad event spec %q", s)
		}
		var kind trace.Kind
		switch parts[1] {
		case "req":
			kind = trace.KindRequest
		case "in":
			kind = trace.KindEnter
		case "out":
			kind = trace.KindExit
		default:
			t.Fatalf("bad kind %q", parts[1])
		}
		var arg int64
		if len(parts) == 4 {
			fmt.Sscanf(parts[3], "%d", &arg)
		}
		var pid int
		fmt.Sscanf(parts[0], "%d", &pid)
		tr = append(tr, trace.Event{
			Seq:    int64(i + 1),
			ProcID: pid,
			Proc:   fmt.Sprintf("p#%d", pid),
			Kind:   kind,
			Op:     parts[2],
			Arg:    arg,
		})
	}
	return tr
}

func wantClean(t *testing.T, vs []Violation) {
	t.Helper()
	if len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func wantRule(t *testing.T, vs []Violation, rule string) {
	t.Helper()
	for _, v := range vs {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %q violation in %v", rule, vs)
}

// ---- T4: the footnote-2 problem set covers all six information types ----

func TestProblemSetCoversAllInfoTypes(t *testing.T) {
	footnote2 := []string{
		NameBoundedBuffer, NameFCFS, NameReadersPriority,
		NameDisk, NameAlarmClock, NameOneSlot,
	}
	covered := map[core.InfoType]bool{}
	for _, name := range footnote2 {
		spec, ok := SpecOf(name)
		if !ok {
			t.Fatalf("no spec for %s", name)
		}
		for _, it := range spec.InfoTypes() {
			covered[it] = true
		}
	}
	for _, it := range core.AllInfoTypes() {
		if !covered[it] {
			t.Errorf("information type %q not covered by the test set", it)
		}
	}
}

func TestAllProblemsHaveSpecs(t *testing.T) {
	for _, name := range AllProblems() {
		spec, ok := SpecOf(name)
		if !ok {
			t.Errorf("SpecOf(%q) missing", name)
			continue
		}
		if spec.Name != name {
			t.Errorf("spec name %q != problem name %q", spec.Name, name)
		}
		if len(spec.Constraints) == 0 {
			t.Errorf("%s has no constraints", name)
		}
	}
	if _, ok := SpecOf("nonsense"); ok {
		t.Error("SpecOf accepted unknown problem")
	}
}

// The variants share exactly the exclusion constraint (the premise of the
// §4.2 independence analysis).
func TestRWVariantsShareExclusionConstraint(t *testing.T) {
	rp, wp, ff := ReadersPrioritySpec(), WritersPrioritySpec(), FCFSRWSpec()
	for _, pair := range [][2]core.Scheme{{rp, wp}, {rp, ff}, {wp, ff}} {
		shared := core.SharedConstraints(pair[0], pair[1])
		if fmt.Sprint(shared) != "[rw-exclusion]" {
			t.Fatalf("shared(%s, %s) = %v", pair[0].Name, pair[1].Name, shared)
		}
	}
}

// ---- bounded buffer oracle ----

func TestCheckBoundedBufferClean(t *testing.T) {
	tr := tb(t,
		"1:req:deposit:7", "1:in:deposit:7", "1:out:deposit:7",
		"2:req:remove", "2:in:remove:7", "2:out:remove:7",
	)
	wantClean(t, CheckBoundedBuffer(tr, 1, 1))
}

func TestCheckBoundedBufferOverflow(t *testing.T) {
	tr := tb(t,
		"1:in:deposit:1", "1:out:deposit:1",
		"1:in:deposit:2", "1:out:deposit:2", // capacity 1 exceeded
	)
	wantRule(t, CheckBoundedBuffer(tr, 1, 0), "buffer-no-overflow")
}

func TestCheckBoundedBufferUnderflow(t *testing.T) {
	tr := tb(t, "2:in:remove:0", "2:out:remove:0")
	wantRule(t, CheckBoundedBuffer(tr, 4, 0), "buffer-no-underflow")
}

func TestCheckBoundedBufferOverlap(t *testing.T) {
	tr := tb(t,
		"1:in:deposit:1", "2:in:remove:1", "1:out:deposit:1", "2:out:remove:1",
	)
	wantRule(t, CheckBoundedBuffer(tr, 4, 0), "buffer-exclusion")
}

func TestCheckBoundedBufferItemIntegrity(t *testing.T) {
	tr := tb(t,
		"1:in:deposit:1", "1:out:deposit:1",
		"2:in:remove:9", "2:out:remove:9", // removed an item never deposited
	)
	wantRule(t, CheckBoundedBuffer(tr, 4, 0), "item-integrity")
}

func TestCheckBoundedBufferCompleteness(t *testing.T) {
	tr := tb(t, "1:in:deposit:1", "1:out:deposit:1")
	wantRule(t, CheckBoundedBuffer(tr, 4, 5), "completeness")
}

// ---- FCFS oracle ----

func TestCheckFCFSClean(t *testing.T) {
	tr := tb(t,
		"1:req:use", "2:req:use",
		"1:in:use", "1:out:use",
		"2:in:use", "2:out:use",
	)
	wantClean(t, CheckFCFS(tr, true))
}

func TestCheckFCFSOrderViolation(t *testing.T) {
	// Process 3 holds the resource; 1 then 2 request; at 3's completion
	// (the release) process 2 is admitted past the waiting process 1.
	tr := tb(t,
		"3:in:use",
		"1:req:use", "2:req:use",
		"3:out:use",
		"2:in:use", "2:out:use", // overtakes process 1
		"1:in:use", "1:out:use",
	)
	wantRule(t, CheckFCFS(tr, true), "fcfs-order")
	// With order checking off (real-kernel mode) the trace is clean.
	wantClean(t, CheckFCFS(tr, false))
}

func TestCheckFCFSInversionWithoutReleaseAccepted(t *testing.T) {
	// Process 2 enters out of request order, but no release happened
	// while 1 waited: the grant predates 1's request (observable-grant
	// rule), so the trace is admissible.
	tr := tb(t,
		"1:req:use", "2:req:use",
		"2:in:use", "2:out:use",
		"1:in:use", "1:out:use",
	)
	wantClean(t, CheckFCFS(tr, true))
}

func TestCheckFCFSExclusionViolation(t *testing.T) {
	tr := tb(t,
		"1:req:use", "2:req:use",
		"1:in:use", "2:in:use", "1:out:use", "2:out:use",
	)
	wantRule(t, CheckFCFS(tr, false), "resource-exclusion")
}

// ---- readers-writers oracles ----

func TestCheckRWExclusionAllowsConcurrentReads(t *testing.T) {
	tr := tb(t,
		"1:in:read", "2:in:read", "1:out:read", "2:out:read",
	)
	wantClean(t, CheckRWExclusion(tr))
}

func TestCheckRWExclusionWriterOverlapsReader(t *testing.T) {
	tr := tb(t,
		"1:in:read", "2:in:write", "1:out:read", "2:out:write",
	)
	wantRule(t, CheckRWExclusion(tr), "rw-exclusion")
}

func TestCheckRWExclusionTwoWriters(t *testing.T) {
	tr := tb(t,
		"1:in:write", "2:in:write", "1:out:write", "2:out:write",
	)
	wantRule(t, CheckRWExclusion(tr), "rw-exclusion")
}

// The footnote-3 anomaly, as a trace: a reader requests while a write is
// in progress; a second writer is admitted before the waiting reader.
func TestCheckReadersPriorityCatchesFigure1Anomaly(t *testing.T) {
	tr := tb(t,
		"1:req:write", "1:in:write",
		"2:req:read", // reader arrives during the write
		"3:req:write",
		"1:out:write",
		"3:in:write", "3:out:write", // second writer overtakes the reader
		"2:in:read", "2:out:read",
	)
	wantRule(t, CheckReadersPriority(tr), "readers-priority")
	// The same trace is a *correct* writers-priority history.
	wantClean(t, CheckWritersPriority(tr))
}

func TestCheckReadersPriorityCleanHistory(t *testing.T) {
	tr := tb(t,
		"1:req:write", "1:in:write",
		"2:req:read",
		"3:req:write",
		"1:out:write",
		"2:in:read", "2:out:read", // reader admitted first: correct
		"3:in:write", "3:out:write",
	)
	wantClean(t, CheckReadersPriority(tr))
	// And that history violates writers-priority.
	wantRule(t, CheckWritersPriority(tr), "writers-priority")
}

func TestCheckFCFSRW(t *testing.T) {
	ordered := tb(t,
		"1:req:read", "2:req:write",
		"1:in:read", "1:out:read",
		"2:in:write", "2:out:write",
	)
	wantClean(t, CheckFCFSRW(ordered))
	// Process 3 is mid-write when 1 and 2 request; at its completion the
	// later-requested writer is admitted past the waiting reader.
	inverted := tb(t,
		"3:in:write",
		"1:req:read", "2:req:write",
		"3:out:write",
		"2:in:write", "2:out:write",
		"1:in:read", "1:out:read",
	)
	wantRule(t, CheckFCFSRW(inverted), "rw-fcfs")
}

func TestCheckRWComposite(t *testing.T) {
	tr := tb(t,
		"1:req:write", "1:in:write",
		"2:req:read",
		"3:req:write",
		"1:out:write",
		"3:in:write", "3:out:write",
		"2:in:read", "2:out:read",
	)
	vs := CheckRW(NameReadersPriority, tr, true)
	wantRule(t, vs, "readers-priority")
	wantClean(t, CheckRW(NameReadersPriority, tr, false))
	wantClean(t, CheckRW(NameWritersPriority, tr, true))
}

// A malformed trace is one instrumentation finding, not one per check
// CheckRW composes.
func TestCheckRWReportsMalformedTraceOnce(t *testing.T) {
	tr := tb(t,
		"1:req:read", "1:in:read",
		"2:out:write", // exit without enter
		"1:out:read",
	)
	for _, problem := range []string{NameReadersPriority, NameWritersPriority, NameFCFSRW} {
		for _, strict := range []bool{true, false} {
			vs := CheckRW(problem, tr, strict)
			if len(vs) != 1 || vs[0].Rule != "instrumentation" {
				t.Errorf("CheckRW(%s, strict=%v) = %v, want one instrumentation violation", problem, strict, vs)
			}
		}
	}
}

// ---- disk oracle ----

func TestScanReference(t *testing.T) {
	order := ScanReference(50, []int64{10, 60, 55, 90, 20})
	if fmt.Sprint(order) != "[55 60 90 20 10]" {
		t.Fatalf("order = %v", order)
	}
	if d := SeekDistance(50, order); d != 120 {
		t.Fatalf("distance = %d, want 120", d)
	}
}

func TestCheckDiskCleanScan(t *testing.T) {
	// All requests pending before service; SCAN from 50 moving up.
	tr := tb(t,
		"1:req:seek:55", "2:req:seek:10", "3:req:seek:60",
		"1:in:seek:55", "1:out:seek:55",
		"3:in:seek:60", "3:out:seek:60",
		"2:in:seek:10", "2:out:seek:10",
	)
	wantClean(t, CheckDisk(tr, 50, true))
}

func TestCheckDiskScanViolation(t *testing.T) {
	// Head at 50 moving up with 55 and 60 pending: serving 60 first
	// violates the elevator rule.
	tr := tb(t,
		"1:req:seek:55", "2:req:seek:60",
		"2:in:seek:60", "2:out:seek:60",
		"1:in:seek:55", "1:out:seek:55",
	)
	wantRule(t, CheckDisk(tr, 50, true), "scan-order")
	wantClean(t, CheckDisk(tr, 50, false)) // exclusion only
}

func TestCheckDiskExclusion(t *testing.T) {
	tr := tb(t,
		"1:req:seek:5", "2:req:seek:6",
		"1:in:seek:5", "2:in:seek:6", "1:out:seek:5", "2:out:seek:6",
	)
	wantRule(t, CheckDisk(tr, 0, false), "disk-exclusion")
}

func TestCheckDiskLateArrivalsAccepted(t *testing.T) {
	// A request arriving between the previous completion and the next
	// admission may or may not be seen by the scheduler; both services
	// must be accepted.
	tr := tb(t,
		"1:req:seek:55",
		"1:in:seek:55", "1:out:seek:55",
		"2:req:seek:70", // arrives after 55 completes
		"3:req:seek:60",
		"2:in:seek:70", "2:out:seek:70", // 70 before 60 is wrong only if 60 was visible
		"3:in:seek:60", "3:out:seek:60",
	)
	// 60 requested before 70's admission, so strict SCAN would pick 60;
	// but both were invisible at 55's completion, so the loose rule
	// accepts the trace.
	wantClean(t, CheckDisk(tr, 50, true))
}

// ---- alarm clock oracle ----

func TestCheckAlarmClockClean(t *testing.T) {
	tr := tb(t,
		"1:req:wakeme:2",
		"9:in:tick:1", "9:out:tick:1",
		"9:in:tick:2",
		"1:in:wakeme:2", "1:out:wakeme:2", // wakes during tick 2: fine
		"9:out:tick:2",
	)
	wantClean(t, CheckAlarmClock(tr))
}

func TestCheckAlarmClockEarlyWake(t *testing.T) {
	tr := tb(t,
		"1:req:wakeme:3",
		"9:in:tick:1", "9:out:tick:1",
		"1:in:wakeme:3", "1:out:wakeme:3", // woke two ticks early
		"9:in:tick:2", "9:out:tick:2",
		"9:in:tick:3", "9:out:tick:3",
	)
	wantRule(t, CheckAlarmClock(tr), "wake-not-early")
}

func TestCheckAlarmClockLostSleeper(t *testing.T) {
	tr := tb(t,
		"1:req:wakeme:1",
		"9:in:tick:1", "9:out:tick:1",
	)
	wantRule(t, CheckAlarmClock(tr), "wake-eventually")
}

// ---- one-slot oracle ----

func TestCheckOneSlotClean(t *testing.T) {
	tr := tb(t,
		"1:in:put:5", "1:out:put:5",
		"2:in:get:5", "2:out:get:5",
		"1:in:put:6", "1:out:put:6",
		"2:in:get:6", "2:out:get:6",
	)
	wantClean(t, CheckOneSlot(tr, 2))
}

func TestCheckOneSlotDoublePut(t *testing.T) {
	tr := tb(t,
		"1:in:put:5", "1:out:put:5",
		"1:in:put:6", "1:out:put:6",
	)
	wantRule(t, CheckOneSlot(tr, 0), "slot-alternation")
}

func TestCheckOneSlotGetFirst(t *testing.T) {
	tr := tb(t, "2:in:get:0", "2:out:get:0")
	wantRule(t, CheckOneSlot(tr, 0), "slot-alternation")
}

func TestCheckOneSlotWrongValue(t *testing.T) {
	tr := tb(t,
		"1:in:put:5", "1:out:put:5",
		"2:in:get:9", "2:out:get:9",
	)
	wantRule(t, CheckOneSlot(tr, 0), "item-integrity")
}

func TestCheckOneSlotCompleteness(t *testing.T) {
	tr := tb(t, "1:in:put:5", "1:out:put:5")
	wantRule(t, CheckOneSlot(tr, 3), "completeness")
}

func TestViolationString(t *testing.T) {
	v := Violation{Rule: "r", Detail: "d", Seq: 4}
	if v.String() != "r @4: d" {
		t.Fatalf("String = %q", v.String())
	}
	v2 := Violation{Rule: "r", Detail: "d"}
	if v2.String() != "r: d" {
		t.Fatalf("String = %q", v2.String())
	}
}
