// Package schedcore is the scheduling core shared by the batch simulator
// (internal/sim) and the incremental online scheduler (internal/online):
// the typed event heap, the policy-ordered waiting queue, the running set
// kept incrementally sorted by perceived finish, and the EASY and
// conservative backfilling algorithms, plus the runtime invariant checks.
//
// The package has two driving modes over one Engine:
//
//   - Batch: every task is registered up front (AddTask + PushArrival) and
//     RunBatch drains the internal event loop, scheduling completions from
//     the known execution times. internal/sim wraps this mode. Arrivals
//     never enter the event heap: PushArrival appends to a plain slice
//     that RunBatch sorts by submit time (only when the caller's order is
//     not already sorted) and consumes through a cursor, so the heap holds
//     only the running tasks' completions. At each instant completions
//     apply before arrivals, and arrivals in input order — the
//     (time, kind, insertion) order a single heap of both would give.
//   - External completions (Config.ExternalCompletions): arrivals and
//     completions are applied by the caller (Arrive, CompleteNow) against a
//     caller-advanced clock (SetNow), and scheduling passes run when the
//     caller asks (Pass). The engine never predicts a completion; decisions
//     use perceived runtimes only, exactly as in batch mode. internal/online
//     wraps this mode.
//
// Both modes share every scheduling decision path, so a differential test
// of one exercises the other. The scheduling semantics are the shared
// contract spelled out in internal/simref.
package schedcore

import (
	"cmp"
	"slices"
	"sort"
	"strconv"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/workload"
)

// TimeEps absorbs floating-point noise when comparing schedule times. It
// is intentionally identical in internal/sim and internal/simref so the
// optimized engines and the oracle produce the same floating-point
// results.
const TimeEps = 1e-9

// BackfillMode selects the backfilling algorithm.
type BackfillMode int

const (
	// BackfillNone: strict policy order; the queue head blocks.
	BackfillNone BackfillMode = iota
	// BackfillEASY: aggressive backfilling — only the queue head holds a
	// reservation; any later task may jump ahead if it does not delay the
	// head (Mu'alem & Feitelson).
	BackfillEASY
	// BackfillConservative: every queued task holds a reservation; a task
	// may jump ahead only if it delays no task before it.
	BackfillConservative
)

// String names the mode for reports.
func (m BackfillMode) String() string {
	switch m {
	case BackfillNone:
		return "none"
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	default:
		return "backfill(" + strconv.Itoa(int(m)) + ")"
	}
}

// Task is the engine's mutable view of one job. Pointers returned by
// Engine.Task stay valid only until the next AddTask or Release.
type Task struct {
	Job       workload.Job
	Perceived float64 // runtime the scheduler sees (r or e)
	Execution float64 // runtime execution actually takes (batch mode)
	score     float64 // cached policy score (static policies)
	Start     float64
	Finish    float64
	Started   bool
	Done      bool
	Backfill  bool
}

// Config parameterizes an Engine.
type Config struct {
	// Policy orders the waiting queue (required).
	Policy sched.Policy
	// UseEstimates makes every scheduling decision see the user estimate e
	// instead of the actual runtime r.
	UseEstimates bool
	// Backfill selects the backfilling algorithm (default none).
	Backfill BackfillMode
	// BackfillOrder optionally reorders EASY backfill candidates by a
	// secondary policy (EASY-SJBF style variants).
	BackfillOrder sched.Policy
	// KillAtEstimate truncates execution at the user estimate (batch mode).
	KillAtEstimate bool
	// ExternalCompletions: the caller reports completions (CompleteNow)
	// instead of the engine scheduling them from execution times; the
	// engine never touches the event heap.
	ExternalCompletions bool
	// RecordTimeline collects a cluster-state point after every pass.
	RecordTimeline bool
	// Check enables the runtime invariant checks (see check.go).
	Check bool
	// OnStart, when set, is invoked for every task the engine starts,
	// immediately after the start is applied. Incremental drivers use it
	// to observe starts without any per-pass allocation.
	OnStart func(ti int)
	// OnPass, when set, is invoked once per scheduling pass with the
	// logical clock and the post-pass queue length. Telemetry samples
	// queue depth through it without the engine importing anything.
	OnPass func(now float64, queued int)
}

// TimelinePoint is one sample of the cluster state.
type TimelinePoint struct {
	Time     float64
	QueueLen int
	CoresUse int
}

// Engine is the scheduling core. See the package comment for the two
// driving modes.
type Engine struct {
	cores int
	free  int
	cfg   Config

	policy      sched.Policy
	withID      sched.PolicyWithID // non-nil if policy scores by job ID
	timeVarying bool

	tasks     []Task
	freeSlots []int // recycled task indices (external-completion drivers)
	queue     []int // waiting task indices; kept score-sorted for static policies
	// running holds the running task indices sorted by ascending
	// (start+perceived, job ID): the perceived-finish order every backfill
	// reservation scans. The order is maintained incrementally (binary
	// insert on start, binary remove on completion) so no scheduling pass
	// ever sorts the running set.
	running []int
	// events holds the batch-mode completions. Batch arrivals live in
	// arrivals (task indices, sorted by submit time when RunBatch starts)
	// and are consumed from index next on.
	events   EventHeap
	arrivals []int
	next     int
	now      float64

	maxQueueLen int
	backfilled  int
	timeline    []TimelinePoint

	// Scratch buffers reused across scheduling passes so the hot paths
	// (EASY candidate ordering, the conservative availability profile)
	// allocate only on high-water-mark growth.
	orderBuf []int
	keysBuf  []float64
	prof     profile

	// checkErr records the first invariant violation when Config.Check
	// is set; nil otherwise. See check.go.
	checkErr error
}

// NewEngine builds an engine for a machine with the given core count. The
// caller is responsible for validating jobs against the machine size.
func NewEngine(cores int, cfg Config) *Engine {
	e := &Engine{cores: cores, free: cores, cfg: cfg}
	e.SetPolicy(cfg.Policy)
	return e
}

// Reset returns the engine to the state NewEngine(cores, cfg) would build
// while keeping every internal buffer's capacity — the task table, queue,
// running set, event heap and backfill scratch are emptied, not freed.
// Drivers that run many short simulations back to back (the trial engine
// of the training pipeline) reset a pooled engine instead of allocating a
// fresh one per run; a reset engine's schedule is bit-identical to a
// fresh engine's because every decision input is re-established from
// scratch.
func (e *Engine) Reset(cores int, cfg Config) {
	e.cores = cores
	e.free = cores
	e.cfg = cfg
	e.tasks = e.tasks[:0]
	e.freeSlots = e.freeSlots[:0]
	e.queue = e.queue[:0]
	e.running = e.running[:0]
	e.events.Reset()
	e.arrivals = e.arrivals[:0]
	e.next = 0
	e.now = 0
	e.maxQueueLen = 0
	e.backfilled = 0
	e.timeline = nil
	e.checkErr = nil
	e.SetPolicy(cfg.Policy)
}

// AddTask registers a job and returns its task index, reusing a released
// slot when one is free. The task is not yet visible to the scheduler;
// batch drivers follow with PushArrival, incremental drivers with Arrive.
func (e *Engine) AddTask(j workload.Job) int {
	perceived := j.Runtime
	if e.cfg.UseEstimates && j.Estimate > 0 {
		perceived = j.Estimate
	}
	execution := j.Runtime
	if e.cfg.KillAtEstimate && j.Estimate > 0 && j.Estimate < execution {
		execution = j.Estimate
	}
	t := Task{Job: j, Perceived: perceived, Execution: execution}
	if n := len(e.freeSlots); n > 0 {
		ti := e.freeSlots[n-1]
		e.freeSlots = e.freeSlots[:n-1]
		e.tasks[ti] = t
		return ti
	}
	e.tasks = append(e.tasks, t)
	return len(e.tasks) - 1
}

// Release recycles a completed task's slot for a future AddTask. Only
// external-completion drivers call it; batch results read tasks after the
// run, so the batch driver never releases.
func (e *Engine) Release(ti int) {
	e.tasks[ti] = Task{}
	e.freeSlots = append(e.freeSlots, ti)
}

// Grow makes room for n more tasks and batch arrivals, so a batch driver
// that knows its job count registers them without growing either buffer
// step by step.
func (e *Engine) Grow(n int) {
	e.tasks = slices.Grow(e.tasks, n)
	e.arrivals = slices.Grow(e.arrivals, n)
}

// PushArrival schedules the task's arrival at its submit time (batch
// mode). Arrivals at one instant join the queue in push order.
func (e *Engine) PushArrival(ti int) {
	e.arrivals = append(e.arrivals, ti)
}

// Arrive applies a task arrival at the current clock (external mode): the
// task joins the waiting queue. The caller runs Pass when the instant's
// event batch is complete.
func (e *Engine) Arrive(ti int) { e.enqueue(ti) }

// CompleteNow applies an external completion at the current clock: the
// task's cores are released and its finish time is recorded as now.
func (e *Engine) CompleteNow(ti int) {
	e.tasks[ti].Finish = e.now
	e.completeTask(ti)
}

// Now returns the engine clock.
func (e *Engine) Now() float64 { return e.now }

// SetNow advances the engine clock (external mode). The caller must run
// any pending Pass for the current instant first.
func (e *Engine) SetNow(t float64) { e.now = t }

// SetPolicy replaces the queue-ordering policy. Tasks already running are
// unaffected; the waiting queue is re-scored and re-ranked immediately for
// static policies (time-varying policies re-rank at every pass anyway), so
// no queue state is dropped. Takes effect at the next scheduling pass.
func (e *Engine) SetPolicy(p sched.Policy) {
	e.policy = p
	e.withID, _ = p.(sched.PolicyWithID)
	e.timeVarying = p.TimeVarying()
	if !e.timeVarying && len(e.queue) > 0 {
		for _, ti := range e.queue {
			e.tasks[ti].score = e.staticScore(ti)
		}
		sort.SliceStable(e.queue, func(i, j int) bool { return e.queueLess(e.queue[i], e.queue[j]) })
	}
}

// Accessors for drivers and result assembly.

// Cores returns the machine size.
func (e *Engine) Cores() int { return e.cores }

// FreeCores returns the currently idle core count.
func (e *Engine) FreeCores() int { return e.free }

// Task returns the engine's view of task ti; the pointer is valid only
// until the next AddTask or Release.
func (e *Engine) Task(ti int) *Task { return &e.tasks[ti] }

// QueueLen returns the number of waiting tasks.
func (e *Engine) QueueLen() int { return len(e.queue) }

// QueuedJobs appends a copy of every waiting (not yet started) task's job
// to buf, in queue priority order, and returns the extended slice. The
// adaptive loop's shadow evaluation replays them so its digital twin
// starts from the cluster's real backlog.
func (e *Engine) QueuedJobs(buf []workload.Job) []workload.Job {
	for _, ti := range e.queue {
		if t := &e.tasks[ti]; !t.Started && !t.Done {
			buf = append(buf, t.Job)
		}
	}
	return buf
}

// RunningLen returns the number of running tasks.
func (e *Engine) RunningLen() int { return len(e.running) }

// MaxQueueLen returns the high-water mark of the waiting queue.
func (e *Engine) MaxQueueLen() int { return e.maxQueueLen }

// BackfilledCount returns how many tasks started via backfilling.
func (e *Engine) BackfilledCount() int { return e.backfilled }

// Timeline returns the recorded cluster-state samples (nil unless
// Config.RecordTimeline).
func (e *Engine) Timeline() []TimelinePoint { return e.timeline }

// CheckErr returns the first invariant violation recorded under
// Config.Check, or nil.
func (e *Engine) CheckErr() error { return e.checkErr }

// view builds the policy's JobView of a task at the current time.
func (e *Engine) view(ti int) sched.JobView {
	t := &e.tasks[ti]
	wait := e.now - t.Job.Submit
	if wait < 0 {
		wait = 0
	}
	return sched.JobView{
		Runtime: t.Perceived,
		Cores:   float64(t.Job.Cores),
		Submit:  t.Job.Submit,
		Wait:    wait,
	}
}

// staticScore computes and caches the score of a task under a
// non-time-varying policy (Wait plays no role, so it is evaluated as 0).
func (e *Engine) staticScore(ti int) float64 {
	v := e.view(ti)
	v.Wait = 0
	if e.withID != nil {
		return e.withID.ScoreID(e.tasks[ti].Job.ID, v)
	}
	return e.policy.Score(v)
}

// enqueue inserts an arrived task into the waiting queue. For static
// policies the queue stays sorted by (score, submit, id) via binary
// insertion; time-varying policies re-sort at each scheduling pass.
func (e *Engine) enqueue(ti int) {
	if e.timeVarying {
		e.queue = append(e.queue, ti)
		return
	}
	e.tasks[ti].score = e.staticScore(ti)
	lo, hi := 0, len(e.queue)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.queueLess(e.queue[mid], ti) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	e.queue = append(e.queue, 0)
	copy(e.queue[lo+1:], e.queue[lo:])
	e.queue[lo] = ti
}

// queueLess orders tasks by (score, submit, id) — the deterministic order
// every experiment uses.
func (e *Engine) queueLess(a, b int) bool {
	ta, tb := &e.tasks[a], &e.tasks[b]
	if ta.score != tb.score {
		return ta.score < tb.score
	}
	if ta.Job.Submit != tb.Job.Submit {
		return ta.Job.Submit < tb.Job.Submit
	}
	return ta.Job.ID < tb.Job.ID
}

// resortQueue refreshes scores at the current time and re-sorts; only
// needed for time-varying policies.
func (e *Engine) resortQueue() {
	for _, ti := range e.queue {
		if e.withID != nil {
			e.tasks[ti].score = e.withID.ScoreID(e.tasks[ti].Job.ID, e.view(ti))
		} else {
			e.tasks[ti].score = e.policy.Score(e.view(ti))
		}
	}
	sort.SliceStable(e.queue, func(i, j int) bool { return e.queueLess(e.queue[i], e.queue[j]) })
}

// rawPF is a task's unclamped perceived finish time, the running-set sort
// key. It is fixed at start time (start and perceived never change), so
// the incremental order in e.running stays valid as the clock advances.
func (e *Engine) rawPF(ti int) float64 {
	t := &e.tasks[ti]
	return t.Start + t.Perceived
}

// runningLess is the running-set order: ascending unclamped perceived
// finish, ties by job ID. Clamping to `now` (perceivedFinish) preserves
// this order, so scans over e.running see nondecreasing release times.
func (e *Engine) runningLess(a, b int) bool {
	pa, pb := e.rawPF(a), e.rawPF(b)
	if pa != pb {
		return pa < pb
	}
	return e.tasks[a].Job.ID < e.tasks[b].Job.ID
}

// runningRank binary-searches the sorted running set for the first
// position not ordered before task ti — its insertion point on start and
// the head of its equal-key run on completion.
func (e *Engine) runningRank(ti int) int {
	lo, hi := 0, len(e.running)
	for lo < hi {
		mid := (lo + hi) / 2
		if e.runningLess(e.running[mid], ti) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// startTask launches a waiting task now, inserting it into the running
// set at its perceived-finish position.
func (e *Engine) startTask(ti int, backfillStart bool) {
	t := &e.tasks[ti]
	t.Started = true
	t.Backfill = backfillStart
	t.Start = e.now
	e.free -= t.Job.Cores
	lo := e.runningRank(ti)
	e.running = append(e.running, 0)
	copy(e.running[lo+1:], e.running[lo:])
	e.running[lo] = ti
	if !e.cfg.ExternalCompletions {
		t.Finish = e.now + t.Execution
		e.events.Push(Event{Time: t.Finish, Kind: KindCompletion, Ref: ti})
	}
	if backfillStart {
		e.backfilled++
	}
	if e.cfg.Check {
		e.checkStart(ti)
	}
	if e.cfg.OnStart != nil {
		e.cfg.OnStart(ti)
	}
}

// completeTask retires a finished task, removing it from the sorted
// running set by binary search.
func (e *Engine) completeTask(ti int) {
	t := &e.tasks[ti]
	t.Done = true
	e.free += t.Job.Cores
	for i := e.runningRank(ti); i < len(e.running); i++ {
		if e.running[i] == ti {
			copy(e.running[i:], e.running[i+1:])
			e.running = e.running[:len(e.running)-1]
			break
		}
	}
	if e.cfg.Check && e.free > e.cores {
		e.failf("completion of job %d released more cores than the platform has (%d free of %d)",
			t.Job.ID, e.free, e.cores)
	}
}

// RunBatch executes the batch event loop: apply every completion and
// then every arrival at the earliest pending instant, then hold one
// scheduling pass (the paper's rescheduling events are exactly task
// arrivals and resource releases).
func (e *Engine) RunBatch() {
	e.sortArrivals()
	for {
		// The next instant is the earlier of the next completion and the
		// next arrival.
		completing, arriving := e.events.Len() > 0, e.next < len(e.arrivals)
		var now float64
		switch {
		case completing && (!arriving || e.events.PeekTime() <= e.submit(e.next)):
			now = e.events.PeekTime()
		case arriving:
			now = e.submit(e.next)
		default:
			return
		}
		e.now = now
		for e.events.Len() > 0 && e.events.PeekTime() == now {
			e.completeTask(e.events.Pop().Ref)
		}
		for e.next < len(e.arrivals) && e.submit(e.next) == now {
			e.enqueue(e.arrivals[e.next])
			e.next++
		}
		e.Pass()
	}
}

// submit is the submit time of the i-th pending batch arrival.
func (e *Engine) submit(i int) float64 { return e.tasks[e.arrivals[i]].Job.Submit }

// sortArrivals stable-sorts the unconsumed arrivals by submit time, so
// equal submits keep push order. Callers almost always push in submit
// order already; one linear scan spares them the sort.
func (e *Engine) sortArrivals() {
	pending := e.arrivals[e.next:]
	for i := 1; i < len(pending); i++ {
		if e.tasks[pending[i]].Job.Submit < e.tasks[pending[i-1]].Job.Submit {
			slices.SortStableFunc(pending, func(a, b int) int {
				return cmp.Compare(e.tasks[a].Job.Submit, e.tasks[b].Job.Submit)
			})
			return
		}
	}
}

// Pass holds one scheduling pass at the current clock: record the queue
// high-water mark, start every task the policy and backfilling rules
// allow, and sample the timeline when recording. Batch mode calls it per
// event batch; external drivers call it once per instant after applying
// that instant's arrivals and completions.
func (e *Engine) Pass() {
	if len(e.queue) > e.maxQueueLen {
		e.maxQueueLen = len(e.queue)
	}
	e.schedulePass()
	if e.cfg.RecordTimeline {
		e.timeline = append(e.timeline, TimelinePoint{
			Time:     e.now,
			QueueLen: len(e.queue),
			CoresUse: e.cores - e.free,
		})
	}
	if e.cfg.OnPass != nil {
		e.cfg.OnPass(e.now, len(e.queue))
	}
}

// schedulePass starts every task the policy and backfilling rules allow.
func (e *Engine) schedulePass() {
	if len(e.queue) == 0 || e.free == 0 {
		return
	}
	if e.timeVarying {
		e.resortQueue()
	}
	if e.cfg.Check {
		e.checkQueueOrder()
	}
	// Start from the head while it fits. The started prefix is shifted out
	// in place (rather than re-slicing the head off) so the queue keeps its
	// backing capacity — re-slicing would shrink the capacity by one per
	// start until every enqueue reallocates, the lone allocation on the
	// online scheduler's steady-state path.
	h := 0
	for h < len(e.queue) && e.tasks[e.queue[h]].Job.Cores <= e.free {
		e.startTask(e.queue[h], false)
		h++
	}
	if h > 0 {
		n := copy(e.queue, e.queue[h:])
		e.queue = e.queue[:n]
	}
	if len(e.queue) == 0 || e.free == 0 {
		return
	}
	switch e.cfg.Backfill {
	case BackfillEASY:
		e.easyBackfill()
	case BackfillConservative:
		e.conservativeBackfill()
	}
}
