// Dynamic partial-order reduction for the DFS phase (Options.DPOR).
//
// The plain DFS branches at every visible decision point, then relies on
// fingerprint pruning to dedup states after the fact. DPOR avoids
// scheduling the redundant siblings in the first place: after each run
// the engine reconstructs a happens-before relation from the kernel's
// dependency trace (kernel.WithDepTrace) via per-step vector clocks, and
// for every pair of conflicting steps not ordered by happens-before it
// pushes a backtrack point at the earlier step's branch group — schedule
// the later step's process there instead (a persistent set). If that
// process was not enabled at the branch group, every alternative is
// pushed (the conservative fallback). Runs whose steps all commute with
// their siblings push nothing, so independent interleavings are never
// enumerated.
//
// A sleep-set memory spans the scan: for each branch group the engine
// remembers which processes have already been scheduled from it — by an
// executed run passing through or by a proposal already pushed.
// Re-proposing such a process would re-run a continuation the search
// already owns, so it is suppressed. Without Prune a branch group is a
// choice prefix (byte-exact: identical prefixes drive identical runs, so
// the suppression loses nothing). With Prune it is a state fingerprint:
// equivalent states have equivalent continuations, so a (state, process)
// pair needs branching only once no matter how many prefixes reach the
// state — the two reductions compose per (state, process) pair rather
// than per decision point. Suppressing a whole point because its state
// was expanded before (what plain pruned DFS does) would be unsound
// here: the earlier expansion pushed only the siblings its own races
// demanded, not all of them.
//
// The work splits in two. The vector-clock pass depends only on the run,
// so whichever worker executed the run performs it (dporScratch.analyze)
// and hands the driver its race candidates — (decision, alternative,
// process) triples in detection order, deduplicated within the run —
// plus the count of candidates dropped at invisible decision points.
// The sleep-set memory depends on every run committed before, so it
// lives on the driver (dporState.expand), which filters the candidates
// in canonical LIFO order. The reduced search is therefore
// byte-deterministic at every Workers count. Workers may read the memory
// to forecast a run's first child before its commit (dporState.predict);
// the driver adopts a forecast only if it came true. The dependency
// relation itself is deliberately conservative but heuristic (see
// kernel/deps.go); Options.Audit is the correctness gate, as it is for
// Prune.
package explore

import (
	"slices"
	"sort"
	"sync"
)

// dporAnalysisCap bounds the number of scheduling steps the vector-clock
// pass walks per run. Runs longer than this (possible only with very
// deep scenarios) have races past the cap ignored; backtrack points can
// only land within Options.DFSDepth anyway, and the audit covers the
// loss like every other approximation here.
const dporAnalysisCap = 4096

// dporProposal is one backtrack point: branch to alternative alt at
// decision point i.
type dporProposal struct{ i, alt int }

// dporCand is a race candidate: schedule process p at decision i by
// taking alternative alt there.
type dporCand struct {
	i, alt int
	p      int32
}

// dporRun is the per-run half of the reduction, computed by the worker
// that executed the run.
type dporRun struct {
	// plain reports that the run carries no dependency records
	// (defensive; the executor enables WithDepTrace whenever DPOR is on):
	// the driver falls back to plain branching.
	plain bool
	// stepProc is the executing process id of each decision point within
	// the depth limit.
	stepProc []int32
	// cands are the race candidates within the depth limit, in detection
	// order, each (i, alt) at most once.
	cands []dporCand
	// invisible counts candidates dropped at invisible decision points
	// (Prune only).
	invisible int
}

// dporScratch is a worker's reusable analysis scratch.
type dporScratch struct {
	off      []int   // readyIDs offset per decision point
	stepProc []int32 // executing process id per step
	cands    []dporCand
	lastOf   []int32 // process id -> its latest step so far, -1 if none
	clocks   []int32 // flat per-step vector clocks, stride = max id + 1
	pclock   []int32 // pre-access clock of the step under analysis
	// accObj/accStep map each object touched so far to the latest step
	// accessing it: a run touches a handful of objects (one cell per
	// process plus the trace cell), so a linear scan beats hashing.
	accObj  []uint64
	accStep []int32
	// proposed marks the (decision, alternative) pairs already proposed
	// in this run, at index i*stride + alt.
	proposed []bool
	stride   int
}

// dporState is the driver's per-scan reduction state: the sleep-set
// memory plus reusable scratch.
type dporState struct {
	// mu guards the sleep-set memory: the driver writes it at commit,
	// forecasting workers read it (predict).
	mu sync.Mutex
	// groupSeen maps a branch group — the binary key of the choice
	// prefix before a decision point — to the process ids already
	// scheduled from it. Used without Prune.
	groupSeen map[string][]int32
	// stateSeen is groupSeen keyed by state fingerprint instead of
	// prefix, one entry per (state, process) pair. Used with Prune:
	// equivalent states share one sleep set.
	stateSeen map[stateProc]struct{}

	props    []dporProposal
	pushedAt map[int]int
	keyBuf   []byte
}

func newDPORState() *dporState {
	return &dporState{
		groupSeen: map[string][]int32{},
		stateSeen: map[stateProc]struct{}{},
		pushedAt:  map[int]int{},
	}
}

// addGroupSeen records that process p has been scheduled from the branch
// group key; it reports false if p was already known there.
func (d *dporState) addGroupSeen(key []byte, p int32) bool {
	set := d.groupSeen[string(key)]
	for _, q := range set {
		if q == p {
			return false
		}
	}
	d.groupSeen[string(key)] = append(set, p)
	return true
}

// stateProc is a stateSeen entry: process p scheduled from state fp.
type stateProc struct {
	fp uint64
	p  int32
}

// addStateSeen is addGroupSeen keyed by state fingerprint.
func (d *dporState) addStateSeen(fp uint64, p int32) bool {
	k := stateProc{fp, p}
	if _, ok := d.stateSeen[k]; ok {
		return false
	}
	d.stateSeen[k] = struct{}{}
	return true
}

// expand is DPOR's replacement for expandDFS: it filters the committed
// run's race candidates through the sleep-set memory and returns only
// the backtrack points that survive, sorted like expandDFS's output
// (ascending branch depth, so LIFO pop order is unchanged). blocked
// counts the sibling alternatives within the node's own suffix that
// plain branching would have pushed and the reduction did not.
func (d *dporState) expand(node *task, o *outcome, depth int, expanded map[uint64]bool, pruned *int) ([]*task, int) {
	r := &o.race
	if r.plain {
		return expandDFS(node.prefix, o, depth, expanded, pruned), 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	schedule := o.sched
	limit := min(len(schedule), depth, len(o.visible), len(o.fps))
	*pruned += r.invisible

	// Sleep-set bookkeeping: every branchable decision this run passed
	// through has scheduled its picked process from that branch group —
	// a state with Prune (expanded non-nil), a choice prefix without.
	// The decisions before the node's branch point replay its parent's
	// run; when this function pushed the node, that commit recorded them
	// already.
	from := 0
	if node.inherited {
		from = len(node.prefix) - 1
	}
	if expanded != nil {
		for i := from; i < limit; i++ {
			if schedule[i].Ready >= 2 && o.visible[i] {
				d.addStateSeen(o.fps[i], r.stepProc[i])
			}
		}
	} else {
		d.keyBuf = appendScheduleKey(d.keyBuf[:0], schedule[:min(from, limit)])
		for i := from; i < limit; i++ {
			if schedule[i].Ready >= 2 {
				d.addGroupSeen(d.keyBuf, r.stepProc[i])
			}
			d.keyBuf = appendScheduleKey(d.keyBuf, schedule[i:i+1])
		}
	}

	// A candidate survives unless the sleep-set memory shows its process
	// was already scheduled from that branch group (a state with Prune, a
	// prefix without; state-keyed suppressions count as pruned
	// schedules).
	d.props = d.props[:0]
	for _, c := range r.cands {
		if expanded != nil {
			if !d.addStateSeen(o.fps[c.i], c.p) {
				*pruned++
				continue
			}
		} else {
			d.keyBuf = appendScheduleKey(d.keyBuf[:0], schedule[:c.i])
			if !d.addGroupSeen(d.keyBuf, c.p) {
				continue
			}
		}
		d.props = append(d.props, dporProposal{i: c.i, alt: c.alt})
	}

	// Materialize the surviving proposals as frontier nodes, ascending
	// (depth, alternative) like expandDFS's push order.
	sort.Slice(d.props, func(a, b int) bool {
		if d.props[a].i != d.props[b].i {
			return d.props[a].i < d.props[b].i
		}
		return d.props[a].alt < d.props[b].alt
	})
	var children []*task
	clear(d.pushedAt)
	for _, pr := range d.props {
		children = append(children, &task{prefix: branchAt(schedule, pr.i, pr.alt), inherited: true})
		d.pushedAt[pr.i]++
	}
	blocked := 0
	for i := len(node.prefix); i < limit; i++ {
		if schedule[i].Ready >= 2 {
			blocked += schedule[i].Ready - 1 - d.pushedAt[i]
		}
	}
	return children, blocked
}

// predict forecasts the node the driver will pop right after committing
// the run of node: the deepest backtrack point expand will push for it.
// It replays expand's filtering (Prune only) against the sleep-set
// memory as it stands plus the entries the commits of the run and of its
// uncommitted forecast ancestors will add, and records the run's own
// additions in o.adds for the forecasts below it. Only runs committed in
// between can make the forecast wrong; the driver then discards it.
func (d *dporState) predict(node *task, o *outcome, depth int) (dporProposal, bool) {
	r := &o.race
	if r.plain {
		return dporProposal{}, false
	}
	schedule := o.sched
	limit := min(len(schedule), depth, len(o.visible), len(o.fps))
	from := 0
	if node.inherited {
		from = len(node.prefix) - 1
	}
	var adds []stateProc
	for i := from; i < limit; i++ {
		if schedule[i].Ready >= 2 && o.visible[i] {
			adds = append(adds, stateProc{o.fps[i], r.stepProc[i]})
		}
	}
	best := dporProposal{i: -1}
	d.mu.Lock()
	for _, c := range r.cands {
		k := stateProc{o.fps[c.i], c.p}
		if d.known(k, adds, node.up) {
			continue
		}
		adds = append(adds, k)
		if c.i > best.i || (c.i == best.i && c.alt > best.alt) {
			best = dporProposal{i: c.i, alt: c.alt}
		}
	}
	d.mu.Unlock()
	o.adds = adds
	return best, best.i >= 0
}

// known reports whether k is in the sleep-set memory, in adds, or among
// the additions forecast for the uncommitted ancestors from up. d.mu
// must be held.
func (d *dporState) known(k stateProc, adds []stateProc, up *outcome) bool {
	if _, ok := d.stateSeen[k]; ok || slices.Contains(adds, k) {
		return true
	}
	for ; up != nil; up = up.up {
		if slices.Contains(up.adds, k) {
			return true
		}
	}
	return false
}

// join folds the stored clock of step into dst (component-wise max).
func (s *dporScratch) join(dst []int32, step int) {
	src := s.clocks[step*len(dst) : (step+1)*len(dst)]
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// analyze is the per-run half of DPOR: it reconstructs the run's
// happens-before order from its dependency trace and collects the race
// candidates within the depth limit. It reads only the run, so any
// worker may call it; the result owns its memory.
func (s *dporScratch) analyze(out runOut, depth int, prune bool) dporRun {
	schedule := out.schedule
	limit := min(len(schedule), depth, len(out.visible), len(out.fps))

	// Offsets of each decision's segment in the flattened ready-set ids.
	s.off = s.off[:0]
	off := 0
	for _, c := range schedule {
		s.off = append(s.off, off)
		off += c.Ready
	}
	if off > len(out.readyIDs) || len(out.causes) < len(schedule) {
		return dporRun{plain: true}
	}
	var maxID int32
	for _, p := range out.readyIDs {
		if p > maxID {
			maxID = p
		}
	}
	s.stepProc = s.stepProc[:0]
	for i, c := range schedule {
		s.stepProc = append(s.stepProc, out.readyIDs[s.off[i]+c.Picked])
	}
	var r dporRun
	s.cands = s.cands[:0]

	// Forward vector-clock pass. A step's clock is the join of its
	// process's previous step, the step that readied the process
	// (unpark/spawn edges), and the last accesses of the objects it
	// touches; component p holds the latest step of process p known to
	// happen before. A pair (i, j) accessing a common object from
	// different processes races iff i is not in j's pre-access clock.
	steps := min(len(schedule), dporAnalysisCap)
	stride := int(maxID) + 1
	if need := steps * stride; cap(s.clocks) < need {
		s.clocks = make([]int32, need)
	} else {
		s.clocks = s.clocks[:need]
	}
	if cap(s.pclock) < stride {
		s.pclock = make([]int32, stride)
	}
	s.pclock = s.pclock[:stride]
	if cap(s.lastOf) < stride {
		s.lastOf = make([]int32, stride)
	}
	s.lastOf = s.lastOf[:stride]
	for i := range s.lastOf {
		s.lastOf[i] = -1
	}
	s.accObj, s.accStep = s.accObj[:0], s.accStep[:0]
	s.stride = stride
	if need := limit * stride; cap(s.proposed) < need {
		s.proposed = make([]bool, need)
	} else {
		s.proposed = s.proposed[:need]
		clear(s.proposed)
	}

	deps := out.deps
	di := 0
	for di < len(deps) && deps[di].Step < 0 {
		di++ // pre-run accesses precede every decision; nothing to backtrack
	}
	for j := 0; j < steps; j++ {
		q := s.stepProc[j]
		pc := s.pclock
		if last := s.lastOf[q]; last >= 0 {
			copy(pc, s.clocks[int(last)*stride:(int(last)+1)*stride])
		} else {
			for i := range pc {
				pc[i] = -1
			}
		}
		if c := out.causes[j]; c >= 0 && int(c) < j {
			s.join(pc, int(c))
		}
		start := di
		for di < len(deps) && deps[di].Step == int32(j) {
			if i := s.lastAccess(deps[di].Obj); i >= 0 {
				p := s.stepProc[i]
				if p != q && pc[p] < i {
					s.propose(&r, int(i), q, out, limit, prune)
				}
			}
			di++
		}
		jc := s.clocks[j*stride : (j+1)*stride]
		copy(jc, pc)
		for k := start; k < di; k++ {
			if i := s.lastAccess(deps[k].Obj); i >= 0 {
				s.join(jc, int(i))
			}
		}
		jc[q] = int32(j)
		s.lastOf[q] = int32(j)
		for k := start; k < di; k++ {
			s.setLastAccess(deps[k].Obj, int32(j))
		}
	}
	r.stepProc = clip(s.stepProc, limit)
	r.cands = clip(s.cands, len(s.cands))
	return r
}

// propose adds the candidates for a backtrack point at decision i, the
// earlier step of a detected race, aiming to schedule process q there.
// Candidates may land anywhere in the run — inside the node's inherited
// prefix too, which grows an ancestor's backtrack set; the scan's
// pop-time dedup keeps duplicates from re-running.
func (s *dporScratch) propose(r *dporRun, i int, q int32, out runOut, limit int, prune bool) {
	schedule := out.schedule
	if i < 0 || i >= limit || schedule[i].Ready < 2 {
		return
	}
	// With Prune, invisible decision points are not branchable (same
	// visibility reduction expandDFS applies): the step left no mark on
	// the recorded trace, so reordering it cannot change a verdict.
	if prune && !out.visible[i] {
		r.invisible++
		return
	}
	ids := out.readyIDs[s.off[i] : s.off[i]+schedule[i].Ready]
	target := -1
	for a, id := range ids {
		if id == q {
			target = a
			break
		}
	}
	if target == schedule[i].Picked {
		return // the race partner is the step already taken here
	}
	if target >= 0 {
		s.candidate(i, target, q)
		return
	}
	// q was not enabled at i: the persistent-set fallback branches every
	// alternative, since some enabled process must lead to q running.
	for a, id := range ids {
		if a != schedule[i].Picked {
			s.candidate(i, a, id)
		}
	}
}

// candidate records (i, alt) targeting process p unless the run already
// proposed it.
func (s *dporScratch) candidate(i, alt int, p int32) {
	k := i*s.stride + alt
	if s.proposed[k] {
		return
	}
	s.proposed[k] = true
	s.cands = append(s.cands, dporCand{i: i, alt: alt, p: p})
}

// lastAccess returns the latest step that accessed obj, or -1.
func (s *dporScratch) lastAccess(obj uint64) int32 {
	for k, o := range s.accObj {
		if o == obj {
			return s.accStep[k]
		}
	}
	return -1
}

func (s *dporScratch) setLastAccess(obj uint64, step int32) {
	for k, o := range s.accObj {
		if o == obj {
			s.accStep[k] = step
			return
		}
	}
	s.accObj = append(s.accObj, obj)
	s.accStep = append(s.accStep, step)
}
