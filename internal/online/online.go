// Package online is the incremental, event-driven scheduler: the same
// scheduling core the batch simulator (internal/sim) drives over a
// preloaded job list, driven instead by streaming calls — Submit a job,
// Complete a running job, Advance the clock — so it can sit inside a live
// service (cmd/schedd) that does not know the future.
//
// The Scheduler maintains full cluster state across calls: the waiting
// queue in policy order, the running set in perceived-finish order, and
// the EASY/conservative backfill structures, all incrementally. It never
// looks at a job's actual runtime to make a decision (completions are
// reported from outside), uses perceived runtimes exactly as the batch
// engine does, and supports hot-swapping the queue policy (SetPolicy)
// without dropping any queued or running state.
//
// # Event batching and Flush
//
// The batch engine applies every event at a timestamp — completions
// before arrivals — and then holds exactly one scheduling pass. The
// Scheduler reproduces that contract with deferred passes: Submit and
// Complete record events at the current clock without scheduling, and the
// pending pass runs when the instant is over — on Flush, or automatically
// when AdvanceTo moves the clock. Replaying a trace this way is
// bit-identical to the batch engine (see Replay and the differential
// tests); a live daemon simply calls Flush after every request.
//
// The steady-state hot path — Submit, Flush, Complete, Flush — performs
// no heap allocations once the scheduler's internal buffers have reached
// their high-water marks: task slots are recycled through a free list and
// the start notifications reuse one scratch slice.
//
// Scheduler is not safe for concurrent use; the public gensched.Cluster
// wrapper adds the lock.
package online

import (
	"errors"
	"fmt"
	"math"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// Options configures a Scheduler. The scheduling-relevant fields mirror
// sim.Options: a stream replayed through the Scheduler schedules exactly
// like a batch run with the same options.
type Options struct {
	// Policy orders the waiting queue (required); swap it later with
	// SetPolicy.
	Policy sched.Policy
	// UseEstimates makes every scheduling decision see the user estimate
	// instead of the submitted runtime.
	UseEstimates bool
	// Backfill selects the backfilling algorithm (default none).
	Backfill sim.BackfillMode
	// BackfillOrder optionally reorders EASY backfill candidates (SJBF
	// style); ignored unless Backfill is BackfillEASY.
	BackfillOrder sched.Policy
	// Tau is the bounded-slowdown constant for live metrics; 0 means
	// sim.DefaultTau.
	Tau float64
	// Check enables the core's runtime invariant checking; the first
	// violation is reported by Err.
	Check bool
}

// Start notifies the caller that a job began running. Slices of Start
// returned by Flush and AdvanceTo are scratch, valid until the next call
// on the Scheduler.
type Start struct {
	ID         int
	Time       float64
	Wait       float64 // Time - submit
	Backfilled bool    // started ahead of a blocked higher-priority job
}

// Status is a point-in-time snapshot of the cluster.
type Status struct {
	Now       float64
	Cores     int
	FreeCores int
	Queued    int
	Running   int
	Submitted int // total jobs ever submitted
	Completed int // total jobs ever completed
	Policy    string
}

// Metrics aggregates the schedule so far. Per-job terms are accumulated
// in completion order as jobs retire, so a stream can be watched live
// with O(1) memory; for a drained replay the values match the batch
// engine's up to float summation order (Replay assembles bit-identical
// metrics the batch way instead).
type Metrics struct {
	Submitted   int
	Completed   int
	Backfilled  int
	MaxQueueLen int
	AveBsld     float64 // mean bounded slowdown over completed jobs
	MeanWait    float64
	MaxBSLD     float64
	MaxWait     float64
	Utilization float64 // busy core-seconds / (cores · (last finish - first submit))
}

// Errors returned by the Scheduler.
var (
	ErrNoPolicy = errors.New("online: options require a policy")
	ErrNoCores  = errors.New("online: cluster needs at least one core")
)

// Scheduler is the incremental scheduler. Create one with New; drive it
// with Submit/Complete/AdvanceTo/Flush.
type Scheduler struct {
	eng    *schedcore.Engine
	opt    Options // current configuration; Policy tracks SetPolicy swaps
	policy sched.Policy
	tau    float64

	byID   map[int]int // active (queued or running) job ID → task slot
	dirty  bool        // events recorded at the current instant, pass pending
	starts []Start     // scratch for Flush results

	// tel, when non-nil, observes submits, starts, completions, passes
	// and policy swaps. Every Sink method is nil-receiver safe, so the
	// hooks below call unconditionally: disabled telemetry costs one nil
	// check per event and changes no output bit (pinned by the
	// differential suites).
	tel *telemetry.Sink

	// Aggregates, maintained incrementally.
	submitted   int
	completed   int
	sumB, sumW  float64
	busy        float64
	maxB, maxW  float64
	firstSubmit float64
	lastFinish  float64
}

// New builds an empty cluster with the given core count. The clock starts
// at zero.
func New(cores int, opt Options) (*Scheduler, error) {
	if opt.Policy == nil {
		return nil, ErrNoPolicy
	}
	if cores <= 0 {
		return nil, ErrNoCores
	}
	tau := opt.Tau
	if tau <= 0 {
		tau = sim.DefaultTau
	}
	s := &Scheduler{
		opt:         opt,
		policy:      opt.Policy,
		tau:         tau,
		byID:        make(map[int]int),
		firstSubmit: math.Inf(1),
		lastFinish:  math.Inf(-1),
	}
	s.opt.Tau = tau
	s.eng = schedcore.NewEngine(cores, s.engineConfig())
	return s, nil
}

// engineConfig is the core configuration a Scheduler drives its engine
// with; New and Restore (state.go) build engines from the same source of
// truth so a restored scheduler cannot drift from a fresh one.
func (s *Scheduler) engineConfig() schedcore.Config {
	return schedcore.Config{
		Policy:              s.opt.Policy,
		UseEstimates:        s.opt.UseEstimates,
		Backfill:            s.opt.Backfill,
		BackfillOrder:       s.opt.BackfillOrder,
		Check:               s.opt.Check,
		ExternalCompletions: true,
		OnStart:             s.onStart,
		OnPass:              s.onPass,
	}
}

// SetTelemetry attaches (or, with nil, detaches) a telemetry sink.
// Attaching telemetry never alters a scheduling decision: the sink only
// observes.
func (s *Scheduler) SetTelemetry(t *telemetry.Sink) { s.tel = t }

// Telemetry returns the attached sink, nil when disabled.
func (s *Scheduler) Telemetry() *telemetry.Sink { return s.tel }

// onPass observes every scheduling pass (for queue-depth sampling).
func (s *Scheduler) onPass(now float64, queued int) {
	s.tel.Pass(now, queued)
}

// onStart observes every task the core starts during a pass.
func (s *Scheduler) onStart(ti int) {
	t := s.eng.Task(ti)
	wait := t.Start - t.Job.Submit
	s.starts = append(s.starts, Start{
		ID:         t.Job.ID,
		Time:       t.Start,
		Wait:       wait,
		Backfilled: t.Backfill,
	})
	s.tel.JobStarted(t.Start, t.Job.ID, wait, t.Backfill)
}

// Clock returns the scheduler's current time.
func (s *Scheduler) Clock() float64 { return s.eng.Now() }

// Submit records the arrival of a job at the current instant. The job's
// Submit field is what policies score (it must not lie in the future); a
// zero Submit on a nonzero clock is stamped with the current time, the
// convenience live clients expect. The scheduling pass is deferred to the
// next Flush or AdvanceTo so every arrival and completion of the instant
// is scheduled together, as in the batch engine.
func (s *Scheduler) Submit(j workload.Job) error {
	if j.Submit == 0 && s.eng.Now() > 0 {
		j.Submit = s.eng.Now()
	}
	if err := j.Validate(s.eng.Cores()); err != nil {
		return fmt.Errorf("online: %w", err)
	}
	if j.Submit > s.eng.Now()+schedcore.TimeEps {
		return fmt.Errorf("online: job %d submitted at %g, after the clock %g", j.ID, j.Submit, s.eng.Now())
	}
	if _, ok := s.byID[j.ID]; ok {
		return fmt.Errorf("online: job ID %d is already active", j.ID)
	}
	ti := s.eng.AddTask(j)
	s.eng.Arrive(ti)
	s.byID[j.ID] = ti
	s.submitted++
	if j.Submit < s.firstSubmit {
		s.firstSubmit = j.Submit
	}
	s.dirty = true
	s.tel.JobSubmitted(j.Submit, j.ID)
	return nil
}

// Complete reports that a running job finished at the current instant,
// releasing its cores. Like Submit, the scheduling pass is deferred.
func (s *Scheduler) Complete(id int) error {
	ti, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("online: job %d is not active", id)
	}
	t := s.eng.Task(ti)
	if !t.Started {
		return fmt.Errorf("online: job %d has not started", id)
	}
	s.eng.CompleteNow(ti)

	wait := t.Start - t.Job.Submit
	b := sim.Bsld(wait, t.Job.Runtime, s.tau)
	s.sumB += b
	s.sumW += wait
	if b > s.maxB {
		s.maxB = b
	}
	if wait > s.maxW {
		s.maxW = wait
	}
	s.busy += (t.Finish - t.Start) * float64(t.Job.Cores)
	if t.Finish > s.lastFinish {
		s.lastFinish = t.Finish
	}
	s.completed++
	// Before Release: it zeroes the task t points at.
	s.tel.JobCompleted(t.Finish, id, wait, b)

	delete(s.byID, id)
	s.eng.Release(ti)
	s.dirty = true
	return nil
}

// Flush runs the pending scheduling pass for the current instant, if any,
// and returns the jobs it started. The returned slice is scratch, valid
// until the next call on the Scheduler.
func (s *Scheduler) Flush() []Start {
	s.starts = s.starts[:0]
	s.flushInto()
	return s.starts
}

// flushInto runs the pending pass, appending its starts to the current
// scratch without resetting it — the composite operations accumulate the
// starts of several flushes into one notification batch.
func (s *Scheduler) flushInto() {
	if !s.dirty {
		return
	}
	s.dirty = false
	s.eng.Pass()
}

// AdvanceTo moves the clock forward to t, first flushing any pass pending
// at the current instant (whose starts are returned, stamped with the old
// time — they happened before the clock moved). Going backward is an
// error.
func (s *Scheduler) AdvanceTo(t float64) ([]Start, error) {
	now := s.eng.Now()
	if t < now {
		return nil, fmt.Errorf("online: cannot advance the clock backward (%g < %g)", t, now)
	}
	started := s.Flush()
	s.eng.SetNow(t)
	return started, nil
}

// SubmitAt is the live-service composite a daemon request maps to:
// advance the clock to t (clamped so it never moves backward), record the
// arrival, and run the instant's scheduling pass. On error the clock is
// restored to where it was, so one rejected request (duplicate ID,
// oversized job, typo'd timestamp) cannot wedge the stream by stranding
// the clock in the future. The returned slice is scratch, valid until the
// next call; on error it still carries any starts the pending pass
// produced before the rejection.
func (s *Scheduler) SubmitAt(t float64, j workload.Job) ([]Start, error) {
	prev := s.eng.Now()
	if t < prev {
		t = prev
	}
	s.starts = s.starts[:0]
	s.flushInto() // the pass pending at prev, if any
	s.eng.SetNow(t)
	if err := s.Submit(j); err != nil {
		s.eng.SetNow(prev)
		return s.starts, err
	}
	s.flushInto()
	return s.starts, nil
}

// CompleteAt is SubmitAt's counterpart for completion reports: advance
// (clamped), complete, pass — with the clock restored on error.
func (s *Scheduler) CompleteAt(t float64, id int) ([]Start, error) {
	prev := s.eng.Now()
	if t < prev {
		t = prev
	}
	s.starts = s.starts[:0]
	s.flushInto()
	s.eng.SetNow(t)
	if err := s.Complete(id); err != nil {
		s.eng.SetNow(prev)
		return s.starts, err
	}
	s.flushInto()
	return s.starts, nil
}

// SetPolicy hot-swaps the queue-ordering policy without dropping state:
// the waiting queue is re-scored and re-ranked under the new policy, and
// the swap governs every scheduling pass from the next one on. Running
// jobs are unaffected. No pass is triggered — like any other change to
// the instant, it takes effect when the instant is flushed.
func (s *Scheduler) SetPolicy(p sched.Policy) error {
	if p == nil {
		return ErrNoPolicy
	}
	s.policy = p
	s.opt.Policy = p
	s.eng.SetPolicy(p)
	s.tel.PolicySwapped(s.eng.Now(), p.Name())
	return nil
}

// Policy returns the active queue-ordering policy.
func (s *Scheduler) Policy() sched.Policy { return s.policy }

// Options returns the scheduler's current configuration: the options it
// was built with, with Tau resolved and Policy tracking SetPolicy swaps.
// Digital-twin replays (the adaptive loop's shadow evaluation) use it to
// reproduce the live scheduling regime exactly.
func (s *Scheduler) Options() Options { return s.opt }

// Err returns the first invariant violation recorded under Options.Check,
// or nil.
func (s *Scheduler) Err() error { return s.eng.CheckErr() }

// Status snapshots the cluster state.
func (s *Scheduler) Status() Status {
	return Status{
		Now:       s.eng.Now(),
		Cores:     s.eng.Cores(),
		FreeCores: s.eng.FreeCores(),
		Queued:    s.eng.QueueLen(),
		Running:   s.eng.RunningLen(),
		Submitted: s.submitted,
		Completed: s.completed,
		Policy:    s.policy.Name(),
	}
}

// Metrics aggregates the schedule so far (completed jobs).
func (s *Scheduler) Metrics() Metrics {
	m := Metrics{
		Submitted:   s.submitted,
		Completed:   s.completed,
		Backfilled:  s.eng.BackfilledCount(),
		MaxQueueLen: s.eng.MaxQueueLen(),
		MaxBSLD:     s.maxB,
		MaxWait:     s.maxW,
	}
	if s.completed > 0 {
		n := float64(s.completed)
		m.AveBsld = s.sumB / n
		m.MeanWait = s.sumW / n
	}
	if span := s.lastFinish - s.firstSubmit; span > 0 {
		m.Utilization = s.busy / (float64(s.eng.Cores()) * span)
	}
	return m
}

// QueuedJobs returns copies of the jobs currently waiting, in queue
// priority order. The adaptive retraining loop replays them in its shadow
// evaluation so the digital twin reproduces the cluster's actual backlog.
func (s *Scheduler) QueuedJobs() []workload.Job { return s.eng.QueuedJobs(nil) }

// MaxQueueLen returns the waiting-queue high-water mark.
func (s *Scheduler) MaxQueueLen() int { return s.eng.MaxQueueLen() }

// BackfilledCount returns how many jobs started via backfilling.
func (s *Scheduler) BackfilledCount() int { return s.eng.BackfilledCount() }
