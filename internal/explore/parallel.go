// The parallel exploration engine: a crew of workers that run, judge and
// analyze schedules, and a driver that commits their outcomes in order.
//
// Both exploration phases share one structure. The canonical order in
// which the sequential engine would execute schedules is known in advance
// (random: ascending seed) or discoverable as the search unfolds (DFS:
// LIFO frontier order). Every worker — the driver included — claims the
// unclaimed schedule closest to the front of that order, executes it on a
// private kernel, judges it with the oracle and, in DFS, runs the per-run
// half of the reduction (dpor.go) before copying out the few per-step
// arrays branching needs and releasing the kernel. The driver walks the
// canonical order and commits each outcome: everything whose result
// depends on what was committed before — pop-time dedup, the sleep-set
// and visited-state memories, frontier pushes, Progress — happens there
// and only there. When the outcome it needs next is still being computed
// elsewhere, the driver judges or executes other work instead of
// blocking. In DFS, workers also run ahead below the frontier
// on forecast first children (dporState.predict), and with helpers the
// driver commits a run's expansion before its verdict is in (dfsScan).
//
// Because every schedule is deterministic and every per-run computation
// is a pure function of the run, the driver observes exactly the
// outcomes the sequential engine would have, so the reported Result is
// independent of the worker count. Speculation past a finding or past
// the budget, and a forecast that does not come true, is wasted work,
// never a wrong answer; at most speculation × Workers claimed schedules
// await commit at any time, so the memory held by uncommitted outcomes
// stays bounded.
package explore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/trace"
)

// runOut is the outcome of executing one schedule. The slices are
// zero-copy views into the executing slot's buffers: valid until the slot
// is released (executor.release) and must be copied before escaping into
// a Result.
type runOut struct {
	schedule []kernel.Choice
	tr       trace.Trace
	err      error
	fps      []uint64 // state fingerprint at each decision point
	visible  []bool   // per-step visibility (false = pure yield)
	// Dependency-trace views (empty unless Options.DPOR): per-step object
	// accesses, the flattened ready-set ids per decision, and the readying
	// step of each pick. See kernel/deps.go.
	deps     []kernel.DepAccess
	readyIDs []int32
	causes   []int32
	slot     *runSlot
}

// runSlot bundles the per-run machinery — a kernel and its recorder.
// Slots are recycled through Reset instead of reallocated, so the
// steady-state cost of a run is the run itself, not its setup.
type runSlot struct {
	k *kernel.SimKernel
	r *trace.Recorder
}

// executor runs schedules on recycled slots. It is safe for concurrent
// use; each run executes on a private slot.
type executor struct {
	maxSteps int64
	dpor     bool

	// slots counts runSlots ever created; reuses counts runs served by a
	// recycled slot; executed counts runs executed by any worker. Atomics
	// because workers run concurrently; they feed Stats observability
	// fields only, never the deterministic Result.
	slots    atomic.Int64
	reuses   atomic.Int64
	executed atomic.Int64

	mu   sync.Mutex
	free []*runSlot
	all  []*runSlot // every slot ever created, for close()
}

func newExecutor(opts Options) *executor {
	return &executor{
		maxSteps: opts.MaxSteps,
		dpor:     opts.DPOR,
	}
}

// poolStats reports (slots created, runs served by a recycled slot) for
// Stats snapshots.
func (e *executor) poolStats() (int, int) {
	return int(e.slots.Load()), int(e.reuses.Load())
}

func (e *executor) acquire() *runSlot {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		e.mu.Unlock()
		e.reuses.Add(1)
		return s
	}
	e.mu.Unlock()
	e.slots.Add(1)
	kopts := []kernel.SimOption{kernel.WithMaxSteps(e.maxSteps), kernel.WithRecycle()}
	if e.dpor {
		kopts = append(kopts, kernel.WithDepTrace())
	}
	s := &runSlot{k: kernel.NewSim(kopts...)}
	s.r = trace.NewRecorder(s.k)
	e.mu.Lock()
	e.all = append(e.all, s)
	e.mu.Unlock()
	return s
}

// release returns out's slot to the freelist. Call only once every view
// in out (schedule, trace, fingerprints, visibility) has been consumed or
// copied; a released slot's next run overwrites them all.
func (e *executor) release(out runOut) {
	if out.slot == nil {
		return
	}
	e.mu.Lock()
	e.free = append(e.free, out.slot)
	e.mu.Unlock()
}

// close releases every slot's recycled worker goroutines. Call once, when
// no run is in flight (the phases stop their crews before returning).
func (e *executor) close() {
	for _, s := range e.all {
		s.k.Close()
	}
}

// run executes prog once under the given policy and returns views of
// what the run recorded. Safe to call from multiple goroutines
// concurrently.
func (e *executor) run(prog Program, policy kernel.Policy) runOut {
	s := e.acquire()
	s.k.Reset(kernel.WithPolicy(policy))
	s.r.Reset()
	e.executed.Add(1)
	prog(s.k, s.r)
	err := s.k.Run()
	return runOut{
		schedule: s.k.ChoicesView(),
		tr:       s.r.Snapshot(),
		err:      err,
		fps:      s.k.StepFingerprints(),
		visible:  s.k.StepVisibility(),
		deps:     s.k.DepAccesses(),
		readyIDs: s.k.ReadySetIDs(),
		causes:   s.k.ReadyCauses(),
		slot:     s,
	}
}

// outcome is what the driver needs to commit one executed schedule,
// prepared by the worker that ran it. Unlike runOut it owns its memory,
// so the kernel slot goes back to the pool as soon as nothing needs the
// run any more.
type outcome struct {
	// The verdict. A deferred outcome (DFS with helpers) is committed
	// before it is judged and joins the crew's judging queue; judged and
	// taken are guarded by crew.mu, and res and found are valid once
	// judged is set.
	res    Result // the finding; Runs and Pruned are stamped by the driver
	found  bool
	judged bool
	taken  bool // a worker is judging it
	// run holds the slot while the run is still needed: until judged.
	run runOut
	// DFS only: the schedule, and with Prune or DPOR the fingerprints and
	// visibility, each copied up to Options.DFSDepth — all that branching
	// reads — plus the per-run half of DPOR.
	sched   []kernel.Choice
	fps     []uint64
	visible []bool
	race    dporRun
	// The forecast (DPOR with Prune and helpers, speculative runs only):
	// next is the node the driver is predicted to pop right after
	// committing this run, claimable ahead of time; adds are the
	// sleep-set entries this run's commit is predicted to add; up is the
	// run's parent when the run itself was forecast. See
	// dporState.predict.
	next *task
	adds []stateProc
	up   *outcome
}

// worker is the private state of one crew member.
type worker struct {
	dpor dporScratch
}

// speculation bounds how far the crew may run ahead of the driver: at
// most speculation × Workers claimed schedules await commit at once. The
// DFS helpers run ahead on the siblings of the path the driver is
// descending and on the forecasts below them, which the driver commits
// only after the subtree it is in; on the deep readers/writers scenario
// a bound of 256 per worker already leaves them idle most of the time.
// An uncommitted outcome holds two to three kilobytes.
const speculation = 512

// forecastDepth bounds a chain of forecasts (outcome.next) below a
// frontier node. A wrong forecast wastes the runs below it too.
const forecastDepth = 4

// verdictLag bounds how far deferred judging may trail the driver: at
// most verdictLag × Workers committed runs await their verdict. Each
// holds its kernel slot until judged.
const verdictLag = 4

type taskState uint8

const (
	taskFree    taskState = iota // not yet claimed
	taskRunning                  // claimed; its outcome is being computed
	taskDone                     // outcome published, awaiting commit
)

// task is one schedule of a phase's canonical order: a random seed or a
// DFS frontier node.
type task struct {
	seed   int64           // random phase: the policy seed
	prefix []kernel.Choice // DFS: the choice prefix to replay
	// inherited marks a DFS node pushed by the reduction, whose commit
	// recorded the sleep-set entries of the node's prefix (dpor.go).
	inherited bool
	// up is the parent's outcome of a forecast node (outcome.next), and
	// level the number of forecasts from the frontier node above it.
	up    *outcome
	level int

	// Guarded by crew.mu.
	state   taskState
	spec    bool // claimed ahead of the driver: holds a speculation slot
	dropped bool // discarded by the driver while a helper ran it
	out     *outcome
}

// crew coordinates one phase's workers. Helpers loop judging deferred
// outcomes, or else claiming the next free task, executing it and
// publishing its outcome; the driver awaits tasks and verdicts in
// canonical order. A helper with nothing to do parks on wake; the driver,
// waiting on work a helper holds, parks on ready.
type crew struct {
	e     *executor
	next  func() *task // nearest free task in canonical order, or nil; mu held
	exec  func(w *worker, t *task) *outcome
	judge func(o *outcome) // fills in a deferred outcome's verdict and frees its run

	mu      sync.Mutex
	limit   int        // speculation slots
	claimed int        // speculative tasks claimed and not yet committed
	queue   []*outcome // deferred outcomes nobody is judging yet, oldest first
	parked  int        // helpers waiting on wake
	over    bool

	wake  chan struct{} // one token per parked helper to rouse
	ready chan struct{} // a helper published an outcome or a verdict
	quit  chan struct{}
	wg    sync.WaitGroup
}

func startCrew(e *executor, workers, helpers int, next func() *task, exec func(*worker, *task) *outcome, judge func(*outcome)) *crew {
	c := &crew{
		e:     e,
		next:  next,
		exec:  exec,
		judge: judge,
		limit: speculation * workers,
		wake:  make(chan struct{}, helpers),
		ready: make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	c.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		go c.help(&worker{})
	}
	return c
}

// stop ends the phase: helpers finish the job in hand and exit, and runs
// left unjudged give their slots back. In-flight runs are bounded by
// MaxSteps.
func (c *crew) stop() {
	c.mu.Lock()
	c.over = true
	c.mu.Unlock()
	close(c.quit)
	c.wg.Wait()
	for _, o := range c.queue {
		c.free(o)
	}
	c.queue = nil
}

// free releases o's kernel slot, if it still holds one.
func (c *crew) free(o *outcome) {
	c.e.release(o.run)
	o.run = runOut{}
}

// signal tells the driver that something it may be waiting on is done.
func (c *crew) signal() {
	select {
	case c.ready <- struct{}{}:
	default: // the driver has a wakeup pending already
	}
}

// claim takes the next free task speculatively, or returns nil when there
// is none or every speculation slot is taken. mu must be held.
func (c *crew) claim() *task {
	if c.claimed >= c.limit {
		return nil
	}
	t := c.next()
	if t != nil {
		t.state, t.spec = taskRunning, true
		c.claimed++
	}
	return t
}

// take removes the oldest outcome awaiting judgement from the queue, or
// returns nil. mu must be held.
func (c *crew) take() *outcome {
	if len(c.queue) == 0 {
		return nil
	}
	o := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	o.taken = true
	return o
}

// wakeLocked rouses every parked helper. mu must be held.
func (c *crew) wakeLocked() {
	for ; c.parked > 0; c.parked-- {
		select {
		case c.wake <- struct{}{}:
		default: // enough tokens already buffered
		}
	}
}

// freeLocked returns a committed or discarded task's speculation slot.
// mu must be held.
func (c *crew) freeLocked(t *task) {
	if t.spec {
		c.claimed--
		c.wakeLocked()
	}
}

// deferLocked queues an unjudged outcome for judging. mu must be held.
func (c *crew) deferLocked(o *outcome) {
	if !o.judged {
		c.queue = append(c.queue, o)
		c.wakeLocked()
	}
}

func (c *crew) help(w *worker) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		if c.over {
			c.mu.Unlock()
			return
		}
		// Verdicts first: the driver commits them in order, and a judge
		// is short next to a run.
		if o := c.take(); o != nil {
			c.mu.Unlock()
			c.judgeOne(o)
			continue
		}
		t := c.claim()
		if t == nil {
			c.parked++
			c.mu.Unlock()
			select {
			case <-c.wake:
			case <-c.quit:
				return
			}
			continue
		}
		c.mu.Unlock()
		c.publish(t, c.exec(w, t))
		c.signal()
	}
}

func (c *crew) judgeOne(o *outcome) {
	c.judge(o)
	c.mu.Lock()
	o.judged = true
	c.mu.Unlock()
	c.signal()
}

func (c *crew) publish(t *task, o *outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.dropped {
		c.free(o)
		c.freeLocked(t)
		return
	}
	t.out, t.state = o, taskDone
	c.deferLocked(o)
}

// await returns the outcome of t, the driver's next task in canonical
// order, and frees its speculation slot. A free t runs inline on the
// driver. While a helper still holds t, the driver judges deferred
// outcomes or executes other free tasks, and parks only when there is
// neither.
func (c *crew) await(w *worker, t *task, inline func() *outcome) *outcome {
	for {
		c.mu.Lock()
		switch t.state {
		case taskDone:
			c.freeLocked(t)
			c.mu.Unlock()
			return t.out
		case taskFree:
			t.state = taskRunning
			c.mu.Unlock()
			o := inline()
			c.mu.Lock()
			c.deferLocked(o)
			c.mu.Unlock()
			return o
		}
		if o := c.take(); o != nil {
			c.mu.Unlock()
			c.judgeOne(o)
			continue
		}
		o := c.claim()
		c.mu.Unlock()
		if o == nil {
			<-c.ready
			continue
		}
		c.publish(o, c.exec(w, o))
	}
}

// judged reports whether o's verdict is in.
func (c *crew) judged(o *outcome) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return o.judged
}

// verdict waits for o's verdict, judging o on the driver when no helper
// has taken it yet.
func (c *crew) verdict(o *outcome) {
	for {
		c.mu.Lock()
		if o.judged {
			c.mu.Unlock()
			return
		}
		if !o.taken {
			for i, q := range c.queue {
				if q == o {
					c.queue = append(c.queue[:i], c.queue[i+1:]...)
					break
				}
			}
			o.taken = true
			c.mu.Unlock()
			c.judgeOne(o)
			return
		}
		c.mu.Unlock()
		<-c.ready
	}
}

// drop discards a task the driver will not commit, with the forecast
// chain below it.
func (c *crew) drop(t *task) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLocked(t)
}

// dropLocked is drop with mu held.
func (c *crew) dropLocked(t *task) {
	for t != nil {
		var next *task
		switch t.state {
		case taskRunning:
			t.dropped = true // its helper frees the slot on publish
		case taskDone:
			next = t.out.next
			// A queued outcome is judged anyway; nobody reads the verdict.
			if t.out.judged {
				c.free(t.out)
			}
			c.freeLocked(t)
		}
		t = next
	}
}

// randomPhase samples seeds 1..RandomRuns. Workers claim seeds in
// ascending order; the driver commits them in seed order, so the first
// finding is always the lowest-seed finding — what the sequential scan
// reports.
func randomPhase(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) (Result, bool) {
	n := opts.RandomRuns
	if n == 0 {
		return Result{}, false
	}
	t.phase("random")
	tasks := make([]task, n)
	for i := range tasks {
		tasks[i].seed = int64(i + 1)
	}
	cursor := 0
	next := func() *task {
		for cursor < n && tasks[cursor].state != taskFree {
			cursor++
		}
		if cursor == n {
			return nil
		}
		return &tasks[cursor]
	}
	run := func(seed int64) *outcome {
		out := e.run(prog, kernel.Random(seed))
		o := &outcome{judged: true}
		o.res, o.found = judge(out, oracle)
		e.release(out)
		return o
	}
	c := startCrew(e, opts.Workers, min(opts.Workers-1, n-1), next,
		func(_ *worker, tk *task) *outcome { return run(tk.seed) }, nil)
	defer c.stop()
	w := &worker{}
	for i := range tasks {
		tk := &tasks[i]
		o := c.await(w, tk, func() *outcome { return run(tk.seed) })
		t.ran()
		if o.found {
			o.res.Runs = t.st.Runs
			return o.res, true
		}
	}
	return Result{}, false
}

// auditSet summarizes what a DFS pass found, for the Audit
// cross-check: the distinct violation rules plus canonical tokens for
// kernel errors.
type auditSet map[string]bool

// add records a finding's verdict, as judged by the worker that ran it.
func (s auditSet) add(res Result) {
	switch {
	case res.Err == nil:
		for _, v := range res.Violations {
			s[v.Rule] = true
		}
	case errors.Is(res.Err, kernel.ErrDeadlock):
		s["kernel-error:deadlock"] = true
	default:
		s["kernel-error"] = true
	}
}

// dfsPhase enumerates choice prefixes in LIFO frontier order with an
// explicit DFS-run budget, dispatching to the audit harness when
// requested.
func dfsPhase(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) Result {
	t.phase("dfs")
	if opts.Audit && (opts.Prune || opts.DPOR) {
		return dfsAudit(e, prog, oracle, opts, t)
	}
	res, _ := dfsScan(e, prog, oracle, opts, t, opts.Prune, opts.DPOR, false)
	return res
}

// dfsAudit cross-checks reduction: it runs the DFS budget twice in
// collect mode — once with the configured reductions (Prune and/or
// DPOR), once fully unreduced — and fails if the unreduced frontier
// surfaced any violation rule the reduced search missed. On success the
// result is exactly what a plain reduced DFS would have reported
// (collect mode behaves identically up to the first finding).
func dfsAudit(e *executor, prog Program, oracle Oracle, opts Options, t *tracker) Result {
	// The reference pass uses a silent tracker: its runs are not part of
	// the canonical counter stream the Result (and Progress) reports.
	ref0 := t.silent()
	res, got := dfsScan(e, prog, oracle, opts, t, opts.Prune, opts.DPOR, true)
	_, ref := dfsScan(e, prog, oracle, opts, ref0, false, false, true)
	var missing []string
	for rule := range ref {
		if !got[rule] {
			missing = append(missing, rule)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		var on []string
		if opts.Prune {
			on = append(on, "prune")
		}
		if opts.DPOR {
			on = append(on, "dpor")
		}
		res.Found = true
		res.Err = fmt.Errorf("%w: %s search missed %s", ErrAuditFailed,
			strings.Join(on, "+"), strings.Join(missing, ", "))
	}
	return res
}

// scanCounters are a DFS scan's running counters. The driver snapshots
// them as of each committed run, before its expansion: that is what
// Progress reports when the run's verdict is processed, and what a
// finding there reports.
type scanCounters struct {
	frontier, pruned   int
	backtrack, blocked int
}

// dfsScan is the DFS engine. prune enables fingerprint-based subtree
// skipping; dpor replaces exhaustive branching with happens-before
// driven backtrack points (see dpor.go); collect runs the full budget
// recording every finding's rule (for the audit) instead of returning
// at the first one. The returned Result is the first finding either
// way, so collect=false and collect=true agree on everything a caller
// of Run can observe.
//
// With helpers, a run's verdict is deferred: the driver commits its
// expansion as soon as its analysis is in and processes verdicts in
// order as they arrive, so judging stays off the path of runs that
// depend on each other. If a verdict turns out to be a finding, whatever
// was committed after it is discarded and the counters are restored to
// the snapshot taken at it, exactly as if the scan had stopped there.
func dfsScan(e *executor, prog Program, oracle Oracle, opts Options, t *tracker, prune, dpor, collect bool) (Result, auditSet) {
	found := auditSet{}
	if opts.DFSRuns <= 0 {
		return Result{Runs: t.st.Runs}, found
	}
	helpers := opts.Workers - 1
	// One worker has no one to hand judging to.
	deferred := helpers > 0
	// Forecasting needs helpers to run the forecasts and, for now, the
	// state-keyed sleep sets of DPOR with Prune.
	forecast := deferred && dpor && prune
	depth := opts.DFSDepth
	// settle is the per-run work every worker does: judge (unless
	// deferred), copy out what branching reads, analyze races, and
	// release the kernel slot unless the run is still needed.
	settle := func(w *worker, out runOut) *outcome {
		o := &outcome{sched: clip(out.schedule, depth)}
		if !deferred {
			o.res, o.found = judge(out, oracle)
			o.judged = true
		}
		if prune || dpor {
			o.fps, o.visible = clip(out.fps, depth), clip(out.visible, depth)
		}
		if dpor {
			o.race = w.dpor.analyze(out, depth, prune)
		}
		if deferred {
			o.run = out
		} else {
			e.release(out)
		}
		return o
	}

	// The DPOR state (sleep-set memory and analysis scratch) is per-scan
	// like the pruner's maps, so the audit's reference pass shares nothing
	// with the reduced pass.
	var dp *dporState
	if dpor {
		dp = newDPORState()
	}
	// reforecast checks a forecast f of parent, still unclaimed, against
	// the sleep-set memory as it stands now, which has grown since the
	// forecast was made, and replaces it when it no longer holds.
	reforecast := func(parent, f *task) *task {
		pr, ok := dp.predict(parent, parent.out, depth)
		if ok && len(f.prefix) == pr.i+1 && f.prefix[pr.i].Picked == pr.alt {
			return f
		}
		parent.out.next = nil
		if ok {
			parent.out.next = &task{prefix: branchAt(parent.out.sched, pr.i, pr.alt), inherited: true, up: parent.out, level: f.level}
		}
		return parent.out.next
	}
	// The frontier, and the reach of speculation into it: the runs left
	// in the budget, as nodes deeper than that are never popped. Claims go
	// in canonical order, from the top of the stack down, each node
	// followed by the chain of forecasts below it. Guarded by the crew's
	// mutex, like the forecast links.
	stack := []*task{{}}
	reach := opts.DFSRuns
	next := func() *task {
		budget := reach
		for i := len(stack) - 1; i >= 0 && budget > 0; i-- {
			var parent *task
			for t := stack[i]; t != nil && budget > 0; budget-- {
				if t.state == taskFree {
					if parent != nil {
						t = reforecast(parent, t)
					}
					if t != nil {
						return t
					}
					break
				}
				if t.state != taskDone {
					break
				}
				parent, t = t, t.out.next
			}
		}
		return nil
	}
	c := startCrew(e, opts.Workers, helpers, next,
		func(w *worker, tk *task) *outcome {
			o := settle(w, e.run(prog, kernel.Replay(tk.prefix)))
			if forecast && tk.level < forecastDepth {
				o.up = tk.up
				if pr, ok := dp.predict(tk, o, depth); ok {
					o.next = &task{prefix: branchAt(o.sched, pr.i, pr.alt), inherited: true, up: o, level: tk.level + 1}
				}
			}
			return o
		},
		func(o *outcome) {
			o.res, o.found = judge(o.run, oracle)
			e.release(o.run)
			o.run = runOut{}
		})
	defer func() {
		c.stop()
		for _, tk := range stack {
			if tk.out != nil {
				c.free(tk.out)
			}
		}
	}()

	// seen dedups frontier prefixes by compact binary key; dedup happens
	// at pop time (not push time) to preserve the sequential engine's
	// exploration order exactly. expanded dedups *states*: a decision
	// point whose fingerprint was already branched from is not branched
	// again, killing subtrees that differ only in how they arrived.
	seen := map[string]bool{}
	var expanded map[uint64]bool
	if prune {
		expanded = map[uint64]bool{}
	}
	// pending holds the committed runs whose verdicts are not processed
	// yet, in canonical order, each with the counters as of its commit.
	type pendingRun struct {
		o  *outcome
		at scanCounters
	}
	var (
		pending []pendingRun
		first   Result
	)
	live := scanCounters{backtrack: t.st.BacktrackPoints, blocked: t.st.DPORBlocked}
	// verdicts processes pending verdicts in order: every one already in,
	// and, waiting if need be, as many as it takes to leave at most keep
	// pending. It reports the finding that ends the scan, if any.
	verdicts := func(keep int) (Result, bool) {
		for len(pending) > 0 {
			p := pending[0]
			if len(pending) > keep {
				c.verdict(p.o)
			} else if !c.judged(p.o) {
				break
			}
			pending[0] = pendingRun{}
			pending = pending[1:]
			t.st.Frontier, t.st.Pruned = p.at.frontier, p.at.pruned
			t.st.BacktrackPoints, t.st.DPORBlocked = p.at.backtrack, p.at.blocked
			t.ran()
			if !p.o.found {
				continue
			}
			res := p.o.res
			res.Runs, res.Pruned = t.st.Runs, p.at.pruned
			if !collect {
				return res, true
			}
			found.add(res)
			if !first.Found {
				first = res
			}
		}
		return Result{}, false
	}
	keep := 0
	if deferred {
		keep = verdictLag * opts.Workers
	}

	w := &worker{}
	var keyBuf []byte
	dfsRuns := 0 // explicit budget counter: at most DFSRuns schedules are committed
	// The driver pops its next node in the same critical section as it
	// pushes the children of the last one, so no helper claims the node
	// the driver is about to pop.
	c.mu.Lock()
	for dfsRuns < opts.DFSRuns && len(stack) > 0 {
		node := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		live.frontier = len(stack)
		reach = opts.DFSRuns - dfsRuns - 1
		c.mu.Unlock()

		keyBuf = appendScheduleKey(keyBuf[:0], node.prefix)
		if seen[string(keyBuf)] {
			c.drop(node)
			c.mu.Lock()
			continue
		}
		seen[string(keyBuf)] = true

		o := c.await(w, node, func() *outcome {
			return settle(w, e.run(prog, kernel.Replay(node.prefix)))
		})
		dfsRuns++
		pending = append(pending, pendingRun{o: o, at: live})

		// Branch: for each decision point within depth (at or beyond the
		// prefix), schedule the alternatives not taken — or, with DPOR,
		// only the backtrack points the run's races demand. Push order
		// matches the sequential engine, so LIFO pops explore the same
		// tree.
		var children []*task
		if dp != nil {
			var blocked int
			children, blocked = dp.expand(node, o, depth, expanded, &live.pruned)
			live.backtrack += len(children)
			live.blocked += blocked
		} else {
			children = expandDFS(node.prefix, o, depth, expanded, &live.pruned)
		}
		if res, stop := verdicts(keep); stop {
			return res, found
		}
		c.mu.Lock()
		// Adopt the forecast first child when it came true. Its parent is
		// committed now, so a forecast not yet claimed starts a fresh
		// chain.
		if f := o.next; f != nil {
			if k := len(children); k > 0 && slices.Equal(children[k-1].prefix, f.prefix) {
				if f.state == taskFree {
					f.up, f.level = nil, 0
				}
				children[k-1] = f
			} else {
				c.dropLocked(f)
			}
		}
		if len(children) > 0 {
			stack = append(stack, children...)
			live.frontier = len(stack)
			c.wakeLocked()
		}
	}
	// The frontier emptied before the budget ran out: every schedule the
	// (possibly reduced) search wanted to run has been run.
	exhausted := len(stack) == 0
	c.mu.Unlock()
	if res, stop := verdicts(0); stop {
		return res, found
	}
	t.st.Frontier = 0
	t.st.BacktrackPoints, t.st.DPORBlocked = live.backtrack, live.blocked
	t.st.Exhausted = exhausted
	if !first.Found {
		first.Runs = t.st.Runs
		first.Pruned = live.pruned
	}
	return first, found
}

// clip copies the first min(len(s), n) elements of s.
func clip[T any](s []T, n int) []T {
	return append([]T(nil), s[:min(len(s), n)]...)
}

// expandDFS builds the branch nodes of a committed run: every alternative
// choice not taken at each decision point from the end of the prefix up
// to the depth bound.
//
// With pruning (expanded non-nil) two classes of decision point are
// skipped wholesale:
//
//   - Invisible steps: if the step taken at point i was a pure yield, the
//     alternatives at i commute with it — the same picks are available,
//     from an equivalent state, at point i+1 — so the siblings at i are
//     redundant with the expansion one step later (the sleep-set idea
//     specialized to the one invisible operation the kernel has).
//   - Visited states: if some earlier run already branched from a
//     fingerprint-equal state, the alternatives here lead into subtrees
//     the search has already scheduled; branching again re-explores them
//     with a different arrival history.
//
// Skipped sibling counts accumulate into *pruned for reporting. The
// fingerprint is a heuristic abstraction (see kernel.Fingerprint);
// Options.Audit cross-checks that pruning lost no violation.
func expandDFS(prefix []kernel.Choice, o *outcome, depth int, expanded map[uint64]bool, pruned *int) []*task {
	schedule := o.sched
	limit := min(len(schedule), depth)
	if expanded != nil {
		// Defensive: views are aligned on every judged path, but never
		// index past what the kernel recorded.
		limit = min(limit, len(o.visible), len(o.fps))
	}
	var children []*task
	for i := len(prefix); i < limit; i++ {
		if schedule[i].Ready < 2 {
			continue // no alternatives existed
		}
		if expanded != nil {
			if !o.visible[i] {
				*pruned += schedule[i].Ready - 1
				continue
			}
			if expanded[o.fps[i]] {
				*pruned += schedule[i].Ready - 1
				continue
			}
			expanded[o.fps[i]] = true
		}
		for alt := 0; alt < schedule[i].Ready; alt++ {
			if alt == schedule[i].Picked {
				continue
			}
			children = append(children, &task{prefix: branchAt(schedule, i, alt)})
		}
	}
	return children
}

// branchAt returns schedule[:i] followed by alternative alt at decision i.
func branchAt(schedule []kernel.Choice, i, alt int) []kernel.Choice {
	branch := make([]kernel.Choice, i+1)
	copy(branch, schedule[:i])
	branch[i] = kernel.Choice{Ready: schedule[i].Ready, Picked: alt}
	return branch
}

// appendScheduleKey appends a compact binary encoding of the choice
// sequence: two uvarints per choice. The encoding is injective (uvarints
// are self-delimiting), so key equality is exactly prefix equality — the
// property the old fmt.Sprint key bought with O(prefix) reflection-based
// formatting per DFS node.
func appendScheduleKey(b []byte, cs []kernel.Choice) []byte {
	for _, c := range cs {
		b = binary.AppendUvarint(b, uint64(c.Ready))
		b = binary.AppendUvarint(b, uint64(c.Picked))
	}
	return b
}
