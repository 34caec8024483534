package kernel

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
)

// procState is the scheduling state of a simulated process.
type procState int

const (
	stateRunnable procState = iota
	stateRunning
	stateParked
	stateSleeping
	stateDead
)

func (s procState) String() string {
	switch s {
	case stateRunnable:
		return "runnable"
	case stateRunning:
		return "running"
	case stateParked:
		return "parked"
	case stateSleeping:
		return "sleeping"
	case stateDead:
		return "dead"
	}
	return "invalid"
}

// Policy decides which runnable process runs next. Pick receives the ready
// processes in a deterministic order (ascending readiness, ties by spawn
// order) and returns an index into that slice. A Policy together with the
// program fully determines a SimKernel run.
type Policy interface {
	Pick(ready []*Proc) int
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(ready []*Proc) int

// Pick implements Policy.
func (f PolicyFunc) Pick(ready []*Proc) int { return f(ready) }

// FIFO returns the round-robin policy: always run the process that has
// been ready longest. This is the kernel's default.
func FIFO() Policy { return PolicyFunc(func([]*Proc) int { return 0 }) }

// LIFO returns the most-recently-ready-first policy, useful for provoking
// overtaking behaviors.
func LIFO() Policy { return PolicyFunc(func(ready []*Proc) int { return len(ready) - 1 }) }

// Random returns a seeded uniformly random policy. The same seed and
// program produce the same schedule.
func Random(seed int64) Policy {
	rng := rand.New(rand.NewSource(seed))
	return PolicyFunc(func(ready []*Proc) int { return rng.Intn(len(ready)) })
}

// Choice records one scheduling decision: how many processes were ready
// and which index was chosen.
type Choice struct {
	Ready  int // number of ready processes at the decision point
	Picked int // index chosen, 0 <= Picked < Ready
}

// Replay returns a policy that follows the given choice sequence, then
// falls back to FIFO when the sequence is exhausted. Out-of-range choices
// are clamped. It is the building block of systematic schedule exploration
// (package explore).
func Replay(choices []Choice) Policy {
	i := 0
	return PolicyFunc(func(ready []*Proc) int {
		if i >= len(choices) {
			return 0
		}
		c := choices[i].Picked
		i++
		if c >= len(ready) {
			c = len(ready) - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	})
}

// ExactReplay is a Policy that follows a recorded choice sequence and
// refuses to improvise: at every decision point the observed ready count
// must equal the recorded Choice.Ready and the recorded pick must be in
// range. On divergence the policy fails the run (by returning an
// out-of-range index, which the kernel reports as an error) and records a
// diagnostic retrievable via Err. Once the recording is exhausted it
// falls back to FIFO, matching Replay, so schedules trimmed of their
// default tail still replay exactly.
//
// Use ExactReplay to re-execute saved schedule artifacts: if the program
// has drifted since the schedule was recorded, the replay fails loudly at
// the first divergent decision instead of silently exploring a different
// interleaving.
type ExactReplay struct {
	choices []Choice
	i       int
	err     error
}

// NewExactReplay returns a strict replay policy over the given recording.
func NewExactReplay(choices []Choice) *ExactReplay {
	return &ExactReplay{choices: choices}
}

// Pick implements Policy.
func (r *ExactReplay) Pick(ready []*Proc) int {
	if r.i >= len(r.choices) {
		return 0
	}
	c := r.choices[r.i]
	if c.Ready != len(ready) || c.Picked < 0 || c.Picked >= len(ready) {
		r.err = fmt.Errorf("kernel: replay diverged at decision %d: recorded %d ready (picked %d), observed %d ready",
			r.i, c.Ready, c.Picked, len(ready))
		return -1
	}
	r.i++
	return c.Picked
}

// Err reports the divergence diagnostic, or nil if the replay has
// followed the recording so far.
func (r *ExactReplay) Err() error { return r.err }

// errShutdown is the panic value used to unwind process goroutines when
// the kernel shuts down (deadlock, step limit, or normal termination with
// daemons still live). It never escapes the kernel: the spawn wrapper
// recovers it.
var errShutdown = errors.New("kernel: simulation shut down")

// SimKernel is a deterministic cooperative scheduler. Exactly one process
// executes at a time; control returns to the scheduler at every kernel
// operation (Park, Yield, Sleep, process exit). Virtual time advances only
// when no process is runnable and some process is sleeping.
//
// When Run returns — normal completion, deadlock, or step limit — every
// goroutine the kernel spawned is released: processes still blocked in a
// kernel operation are unwound (their resume channels are closed) and
// exit, so repeated simulation runs do not accumulate goroutines.
type SimKernel struct {
	policy   Policy
	maxSteps int64

	mu       sync.Mutex
	now      int64
	nextID   int
	readySeq int64 // monotonically increasing readiness stamp
	procs    []*simProc
	ready    []*simProc // invariant: sorted ascending by readyAt
	running  *simProc
	steps    int64
	choices  []Choice

	// fp is the incrementally maintained state fingerprint (XOR of
	// per-process contributions; see fingerprint.go). fps records the
	// fingerprint at each decision point, aligned with choices.
	fp  uint64
	fps []uint64

	// stepVisible tracks whether the step in progress performed a visible
	// action (park, unpark, sleep, spawn, exit, or a recorded trace
	// event); a step that only yielded is invisible, which the DFS pruner
	// exploits. visible is aligned with choices.
	stepVisible bool
	visible     []bool

	// readyScratch is reused across scheduling steps to present the ready
	// set to the Policy without a per-step allocation.
	readyScratch []*Proc

	// depTrace enables dependency-trace recording (WithDepTrace): deps
	// holds the per-step object accesses, readyIDs the flattened ready
	// set at each decision, and causes the readying step of each pick
	// (see deps.go).
	depTrace bool
	deps     []DepAccess
	readyIDs []int32
	causes   []int32

	// wg counts live process executions; Reset waits on it so a recycled
	// kernel never shares state with stragglers from the previous run.
	wg sync.WaitGroup

	// Worker-goroutine recycling (WithRecycle): instead of one goroutine
	// per process per run, worker goroutines park between runs and are fed
	// process bodies. procPool holds the previous run's simProcs for
	// in-place reuse — deterministic programs respawn the same processes
	// in the same order, so reuse also recovers the interned name labels.
	recycle     bool
	freeWorkers []*recWorker
	allWorkers  []*recWorker
	procPool    []*simProc

	// doneCh carries the run outcome from whichever goroutine detects
	// termination back to Run. Buffered so the finishing process never
	// blocks on the driver.
	doneCh   chan error
	started  bool
	finished bool
}

// SimOption configures a SimKernel.
type SimOption func(*SimKernel)

// WithPolicy sets the scheduling policy (default FIFO).
func WithPolicy(p Policy) SimOption {
	return func(k *SimKernel) { k.policy = p }
}

// WithMaxSteps bounds the number of scheduling steps Run will take before
// giving up with an error; it guards tests against livelocks. Zero (the
// default) means ten million steps.
func WithMaxSteps(n int64) SimOption {
	return func(k *SimKernel) { k.maxSteps = n }
}

// WithRecycle enables worker-goroutine and process-object recycling
// across Reset: spawning reuses a parked worker goroutine and the
// previous run's process objects instead of allocating fresh ones. Meant
// for run pools (package explore) that execute many runs on one kernel;
// a kernel with recycling enabled must be released with Close when it is
// no longer needed, or its parked workers leak.
func WithRecycle() SimOption {
	return func(k *SimKernel) { k.recycle = true }
}

// NewSim creates a SimKernel.
func NewSim(opts ...SimOption) *SimKernel {
	k := &SimKernel{
		policy:   FIFO(),
		maxSteps: 10_000_000,
		doneCh:   make(chan error, 1),
		choices:  make([]Choice, 0, 64),
	}
	for _, o := range opts {
		o(k)
	}
	return k
}

type simProc struct {
	proc         *Proc
	kernel       *SimKernel
	daemon       bool
	state        procState
	permit       bool
	wakeAt       int64  // valid when sleeping
	readyAt      int64  // readiness stamp for deterministic ordering
	readyCause   int32  // step that readied this process; -1 if none (see deps.go)
	schedCount   uint64 // completed scheduling steps (fingerprint PC proxy)
	fpContrib    uint64 // cached fingerprint contribution
	resume       chan struct{}
	resumeClosed bool // resume was closed by finishLocked; remake on reuse
}

// recWorker is a recycled worker goroutine, parked on feed between
// process executions (WithRecycle).
type recWorker struct {
	feed chan workJob
}

type workJob struct {
	sp *simProc
	fn func(p *Proc)
}

// workerLoop runs process bodies fed to a recycled worker until the
// kernel is closed.
func (k *SimKernel) workerLoop(w *recWorker) {
	for job := range w.feed {
		k.runJob(w, job)
	}
}

// runJob executes one process body on a recycled worker: wait for the
// first schedule, run, and record the exit. A shutdown unwind
// (errShutdown) is recovered here so the worker survives to the next run.
// The worker re-enters the freelist before wg.Done, so once Reset's
// wg.Wait returns every worker is reusable.
func (k *SimKernel) runJob(w *recWorker, job workJob) {
	defer func() {
		if r := recover(); r != nil && r != errShutdown {
			panic(r)
		}
		k.mu.Lock()
		k.freeWorkers = append(k.freeWorkers, w)
		k.mu.Unlock()
		k.wg.Done()
	}()
	if _, ok := <-job.sp.resume; !ok {
		return // kernel shut down before the first schedule
	}
	job.fn(job.sp.proc)
	job.sp.exited()
}

// Spawn implements Kernel. The process does not begin executing until the
// scheduler selects it.
func (k *SimKernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, false)
}

// SpawnDaemon implements Kernel: the process is scheduled normally but is
// invisible to termination and deadlock detection. When the last
// non-daemon process finishes, Run returns and remaining daemons are shut
// down: their goroutines are unwound and exit rather than staying parked.
func (k *SimKernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, fn, true)
}

func (k *SimKernel) spawn(name string, fn func(p *Proc), daemon bool) *Proc {
	k.mu.Lock()
	k.nextID++
	id := k.nextID
	var sp *simProc
	var p *Proc
	if i := id - 1; k.recycle && i < len(k.procPool) {
		// Reuse the previous run's process at the same spawn position.
		// Deterministic programs respawn identically, so the id always
		// matches (ids are positional) and the name almost always does —
		// keeping the label without re-formatting it.
		sp = k.procPool[i]
		p = sp.proc
		if p.name != name {
			p.name = name
			p.label = fmt.Sprintf("%s#%d", name, id)
		}
		if sp.resumeClosed {
			sp.resume = make(chan struct{})
			sp.resumeClosed = false
		}
		sp.daemon = daemon
		sp.state = stateRunnable
		sp.permit = false
		sp.wakeAt = 0
		sp.schedCount = 0
		sp.fpContrib = 0
	} else {
		p = &Proc{id: id, name: name, label: fmt.Sprintf("%s#%d", name, id), k: k}
		sp = &simProc{
			proc:   p,
			kernel: k,
			daemon: daemon,
			state:  stateRunnable,
			resume: make(chan struct{}),
		}
		p.impl = sp
	}
	if k.finished {
		// Spawn after Run returned: never schedule; release the goroutine
		// (or worker) immediately so it cannot leak.
		sp.state = stateDead
		close(sp.resume)
		sp.resumeClosed = true
		k.mu.Unlock()
		return p
	}
	k.procs = append(k.procs, sp)
	k.stepVisible = true // the spawning step changed the ready set
	k.noteDepLocked(objProc(id))
	k.markReadyLocked(sp)
	k.wg.Add(1)
	if k.recycle {
		var w *recWorker
		if n := len(k.freeWorkers); n > 0 {
			w = k.freeWorkers[n-1]
			k.freeWorkers[n-1] = nil
			k.freeWorkers = k.freeWorkers[:n-1]
		} else {
			w = &recWorker{feed: make(chan workJob, 1)}
			k.allWorkers = append(k.allWorkers, w)
			go k.workerLoop(w)
		}
		k.mu.Unlock()
		w.feed <- workJob{sp: sp, fn: fn} // cap 1: an idle worker never blocks us
		return p
	}
	k.mu.Unlock()

	go func() {
		defer k.wg.Done()
		defer func() {
			if r := recover(); r != nil && r != errShutdown {
				panic(r)
			}
		}()
		if _, ok := <-sp.resume; !ok {
			return // kernel shut down before the first schedule
		}
		fn(p)
		sp.exited()
	}()
	return p
}

// markReadyLocked appends sp to the ready set with a fresh readiness stamp.
// Stamps increase monotonically and removal preserves order, so k.ready is
// always sorted by readyAt without any per-step sorting.
func (k *SimKernel) markReadyLocked(sp *simProc) {
	sp.state = stateRunnable
	k.readySeq++
	sp.readyAt = k.readySeq
	sp.readyCause = int32(k.steps) - 1
	k.ready = append(k.ready, sp)
	k.touchFPLocked(sp)
}

// Now implements Kernel: the virtual clock, in ticks.
func (k *SimKernel) Now() Time {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.now
}

// Steps reports how many scheduling decisions the kernel has made.
func (k *SimKernel) Steps() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.steps
}

// Choices returns the scheduling decisions made so far, in order. The
// slice is a copy; it is the input to Replay-based exploration.
func (k *SimKernel) Choices() []Choice {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]Choice, len(k.choices))
	copy(out, k.choices)
	return out
}

// ChoicesView returns the recorded choice sequence without copying. Call
// only after Run has returned; the slice aliases kernel state and is valid
// until the next Reset. The zero-copy sibling of Choices for the
// exploration hot path.
func (k *SimKernel) ChoicesView() []Choice {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.choices
}

// StepFingerprints returns the state fingerprint at each decision point,
// aligned with ChoicesView: element i is the hash of the scheduler state
// from which choice i was made. Same aliasing contract as ChoicesView.
func (k *SimKernel) StepFingerprints() []uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.fps) > len(k.choices) {
		return k.fps[:len(k.choices)]
	}
	return k.fps
}

// StepVisibility reports, for each executed step, whether it performed a
// visible action (park, unpark, sleep, spawn, exit, or a recorded trace
// event) as opposed to a pure yield. Aligned with ChoicesView; same
// aliasing contract.
func (k *SimKernel) StepVisibility() []bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.visible
}

// Reset returns the kernel to its pristine pre-spawn state, retaining
// every allocation — choice, fingerprint, and scratch buffers keep their
// capacity — so a pooled kernel runs in zero-allocation steady state. The
// given options are applied on top of the kernel's current configuration
// (pass WithPolicy to change the schedule).
//
// Reset must only be called before any Spawn or after Run has returned.
// It blocks until every process goroutine from the previous run has
// unwound. Proc handles and slices obtained from the view accessors
// become invalid.
func (k *SimKernel) Reset(opts ...SimOption) {
	// Wait outside the lock: unwinding goroutines briefly take k.mu on
	// their way out.
	k.wg.Wait()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.now = 0
	k.nextID = 0
	k.readySeq = 0
	if k.recycle {
		// Hand the finished run's processes to the pool for in-place
		// reuse (see spawn); the pool's previous backing array becomes
		// the next run's procs slice.
		k.procs, k.procPool = k.procPool[:0], k.procs
	} else {
		k.procs = k.procs[:0]
	}
	k.ready = k.ready[:0]
	k.running = nil
	k.steps = 0
	k.choices = k.choices[:0]
	k.fp = 0
	k.fps = k.fps[:0]
	k.stepVisible = false
	k.visible = k.visible[:0]
	k.deps = k.deps[:0]
	k.readyIDs = k.readyIDs[:0]
	k.causes = k.causes[:0]
	k.started = false
	k.finished = false
	for _, o := range opts {
		o(k)
	}
}

// Close releases the kernel's recycled worker goroutines (WithRecycle);
// without recycling it is a no-op. It blocks until in-flight process
// executions finish unwinding. The kernel must not be used after Close.
func (k *SimKernel) Close() {
	k.wg.Wait()
	k.mu.Lock()
	ws := k.allWorkers
	k.allWorkers = nil
	k.freeWorkers = nil
	k.procPool = nil
	k.mu.Unlock()
	for _, w := range ws {
		close(w.feed)
	}
}

// NowCooperative reads the virtual clock without locking. Safe under the
// cooperative discipline: exactly one process runs at a time and the
// clock only advances inside schedule(), which runs on the yielding
// process's goroutine before the resume-channel handoff to the next —
// so every access is ordered by those handoffs. The trace recorder uses
// it to stamp events without a lock acquisition.
func (k *SimKernel) NowCooperative() Time { return k.now }

// MarkStepVisible marks the scheduling step in progress as visible to the
// DFS pruner (see StepVisibility). It must be called from the running
// process; the trace recorder calls it when an event is recorded, since
// recorded events are exactly what the exploration oracles can observe.
// Unlocked by the same cooperative-discipline argument as NowCooperative.
func (k *SimKernel) MarkStepVisible() { k.stepVisible = true }

// finishLocked marks the kernel finished and releases every goroutine
// still blocked in a kernel operation: closing a process's resume channel
// wakes it with ok=false, which unwinds its stack (see simProc.await).
func (k *SimKernel) finishLocked() {
	k.finished = true
	for _, sp := range k.procs {
		if sp.state != stateDead {
			close(sp.resume)
			sp.resumeClosed = true
		}
	}
}

// Run implements Kernel: it dispatches the first process and then waits
// for the run outcome. Run must be called exactly once.
//
// Scheduling is by direct handoff: each process giving up the processor
// runs the scheduling step on its own goroutine and resumes its successor
// directly, so a context switch costs one goroutine wakeup, not a bounce
// through a central scheduler loop (two wakeups). Whichever goroutine
// detects termination — every process dead, deadlock, step limit, Stop —
// delivers the outcome to Run over doneCh.
func (k *SimKernel) Run() error {
	k.mu.Lock()
	if k.started {
		k.mu.Unlock()
		return fmt.Errorf("kernel: SimKernel.Run called twice")
	}
	k.started = true
	k.mu.Unlock()

	next, fin, err := k.schedule(nil)
	if fin {
		return err
	}
	next.resume <- struct{}{} // hand the processor to the first pick
	return <-k.doneCh
}

// schedule performs one scheduling decision on the calling goroutine.
// self is the process giving up the processor (nil for the initial
// dispatch from Run). It returns the process to hand off to, or fin=true
// with the run outcome when the run is over — in which case finishLocked
// has already unwound every live process, and the caller delivers err.
func (k *SimKernel) schedule(self *simProc) (next *simProc, fin bool, err error) {
	k.mu.Lock()
	// Close out the previous step's visibility record (the running
	// process has handed control back, so stepVisible is final).
	if len(k.visible) < len(k.choices) {
		k.visible = append(k.visible, k.stepVisible)
	}
	if k.steps >= k.maxSteps {
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, fmt.Errorf("kernel: step limit (%d) exceeded; possible livelock", k.maxSteps)
	}
	if !k.anyNonDaemonLiveLocked() {
		// Every real process finished; shut down remaining daemons.
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, nil
	}
	if len(k.ready) == 0 {
		// Try to advance virtual time to the earliest sleeper.
		if !k.wakeSleepersLocked() {
			live := k.parkedNamesLocked()
			k.finishLocked()
			k.mu.Unlock()
			return nil, true, fmt.Errorf("%w: %s", ErrDeadlock, strings.Join(live, ", "))
		}
	}
	// k.ready is already in deterministic order (ascending readiness
	// stamp); expose it to the policy through the reusable scratch.
	if cap(k.readyScratch) < len(k.ready) {
		k.readyScratch = make([]*Proc, len(k.ready))
	}
	readyProcs := k.readyScratch[:len(k.ready)]
	for i, sp := range k.ready {
		readyProcs[i] = sp.proc
	}
	// The fingerprint at the decision point, before anything runs.
	k.fps = append(k.fps, k.fingerprintLocked())
	if k.depTrace {
		for _, sp := range k.ready {
			k.readyIDs = append(k.readyIDs, int32(sp.proc.id))
		}
	}
	idx := k.policy.Pick(readyProcs)
	if idx < 0 || idx >= len(k.ready) {
		k.finishLocked()
		k.mu.Unlock()
		return nil, true, fmt.Errorf("kernel: policy picked %d of %d ready processes", idx, len(readyProcs))
	}
	k.choices = append(k.choices, Choice{Ready: len(readyProcs), Picked: idx})
	k.steps++
	next = k.ready[idx]
	if k.depTrace {
		k.causes = append(k.causes, next.readyCause)
	}
	k.ready = append(k.ready[:idx], k.ready[idx+1:]...)
	next.state = stateRunning
	next.schedCount++
	k.touchFPLocked(next)
	k.stepVisible = false
	k.running = next
	k.mu.Unlock()
	return next, false, nil
}

// handoff transfers the processor from sp (which has already recorded its
// new state under k.mu) to whatever the scheduler picks next, then blocks
// until sp is rescheduled. If the run is over it delivers the outcome to
// Run and unwinds; if the scheduler picked sp itself (possible after a
// yield), it returns immediately with no channel traffic at all.
func (sp *simProc) handoff() {
	k := sp.kernel
	next, fin, err := k.schedule(sp)
	switch {
	case fin:
		k.doneCh <- err
		sp.await() // our resume was closed by finishLocked: unwind
	case next == sp:
		// Rescheduled without a context switch; keep running.
	default:
		next.resume <- struct{}{}
		sp.await()
	}
}

// wakeSleepersLocked advances the clock to the earliest wake time and
// readies every sleeper due at that time. It reports whether any process
// was woken.
func (k *SimKernel) wakeSleepersLocked() bool {
	var earliest int64
	found := false
	for _, sp := range k.procs {
		if sp.state == stateSleeping && (!found || sp.wakeAt < earliest) {
			earliest = sp.wakeAt
			found = true
		}
	}
	if !found {
		return false
	}
	if earliest > k.now {
		k.now = earliest
	}
	for _, sp := range k.procs {
		if sp.state == stateSleeping && sp.wakeAt <= k.now {
			k.markReadyLocked(sp)
			sp.readyCause = -1 // woken by the clock, not by a step
		}
	}
	return true
}

// anyNonDaemonLiveLocked reports whether a non-daemon process has not yet
// terminated.
func (k *SimKernel) anyNonDaemonLiveLocked() bool {
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			return true
		}
	}
	return false
}

// parkedNamesLocked lists live non-daemon processes (all necessarily
// parked when called) for the deadlock report.
func (k *SimKernel) parkedNamesLocked() []string {
	var names []string
	for _, sp := range k.procs {
		if !sp.daemon && sp.state != stateDead {
			names = append(names, sp.proc.String())
		}
	}
	return names
}

// await blocks until the scheduler hands the processor back. If the kernel
// shut down instead (resume closed), it unwinds the process stack; the
// spawn wrapper recovers the sentinel and the goroutine exits.
func (sp *simProc) await() {
	if _, ok := <-sp.resume; !ok {
		panic(errShutdown)
	}
}

// checkLiveLocked unwinds the calling process if the kernel has already
// finished — this catches kernel operations issued while a process stack
// is being unwound (e.g. from a deferred cleanup).
func (k *SimKernel) checkLiveLocked() {
	if k.finished {
		k.mu.Unlock()
		panic(errShutdown)
	}
}

func (sp *simProc) park() {
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	if sp.permit {
		sp.permit = false
		k.touchFPLocked(sp)
		k.mu.Unlock()
		return
	}
	sp.state = stateParked
	k.touchFPLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

func (sp *simProc) unpark() {
	k := sp.kernel
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.finished {
		return
	}
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	switch sp.state {
	case stateParked:
		k.markReadyLocked(sp)
	case stateDead:
		// no-op
	default:
		sp.permit = true
		k.touchFPLocked(sp)
	}
}

func (sp *simProc) yield() {
	// A pure yield is the one invisible kernel operation: it perturbs
	// only the yielder's position in the ready order, which the state
	// fingerprint deliberately ignores.
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.markReadyLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

func (sp *simProc) sleep(ticks int64) {
	k := sp.kernel
	k.mu.Lock()
	k.checkLiveLocked()
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	sp.state = stateSleeping
	sp.wakeAt = k.now + ticks
	k.touchFPLocked(sp)
	k.mu.Unlock()
	sp.handoff()
}

func (sp *simProc) exited() {
	k := sp.kernel
	k.mu.Lock()
	sp.state = stateDead
	k.stepVisible = true
	k.noteDepLocked(objProc(sp.proc.id))
	k.touchFPLocked(sp)
	k.mu.Unlock()
	// Hand the processor on; no resume will follow, so the goroutine
	// simply returns instead of parking.
	next, fin, err := k.schedule(sp)
	if fin {
		k.doneCh <- err
		return
	}
	next.resume <- struct{}{}
}
