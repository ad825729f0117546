// Package sim is gensched's discrete-event simulator for on-line scheduling
// of rigid parallel tasks on a homogeneous cluster — the role SimGrid plays
// in the paper. It implements exactly the abstraction §3.1–§3.2 and §4.2
// describe: tasks arrive into a centralized queue; the scheduler reorders
// the queue with a policy at every rescheduling event (a task arrival or a
// resource release); the queue head starts when enough cores are free and
// blocks otherwise; optionally, aggressive (EASY) backfilling lets tasks
// further back start if they do not delay the head, using user-perceived
// processing times for all decisions while actual runtimes drive execution.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/workload"
)

// DefaultTau is the paper's bounded-slowdown constant τ (Eq. 1): 10 seconds.
const DefaultTau = 10.0

// BackfillMode selects the backfilling algorithm. It is the schedcore
// mode, re-exported so sim callers never import the core package:
//
//   - BackfillNone: strict policy order; the queue head blocks (§4.2).
//   - BackfillEASY: aggressive backfilling — only the queue head holds a
//     reservation; any later task may jump ahead if it does not delay the
//     head (Mu'alem & Feitelson). FCFS+EASY is the EASY algorithm.
//   - BackfillConservative: every queued task holds a reservation; a task
//     may jump ahead only if it delays no task before it. Included as an
//     ablation; the paper evaluates aggressive backfilling.
type BackfillMode = schedcore.BackfillMode

const (
	BackfillNone         = schedcore.BackfillNone
	BackfillEASY         = schedcore.BackfillEASY
	BackfillConservative = schedcore.BackfillConservative
)

// Options configures one simulation run.
type Options struct {
	// Policy orders the waiting queue (required).
	Policy sched.Policy
	// UseEstimates makes every scheduling decision (queue ordering and
	// backfilling reservations) see the user estimate e instead of the
	// actual runtime r. Execution always takes the actual runtime.
	UseEstimates bool
	// Backfill selects the backfilling algorithm (default none).
	Backfill BackfillMode
	// BackfillOrder optionally reorders EASY backfill *candidates* by a
	// secondary policy instead of queue priority order — e.g. SPT gives
	// the EASY-SJBF ("shortest job backfilled first") variant from the
	// backfilling literature. Only the choice among safe candidates
	// changes; the head's no-delay guarantee is untouched. Ignored unless
	// Backfill is BackfillEASY.
	BackfillOrder sched.Policy
	// Tau is the bounded-slowdown constant; 0 means DefaultTau.
	Tau float64
	// KillAtEstimate truncates execution at the user estimate, the way
	// production resource managers enforce wallclock requests. Off in all
	// paper experiments (their simulator runs tasks to completion).
	KillAtEstimate bool
	// RecordTimeline collects a (time, queue length, cores in use) point
	// after every event batch, for schedule visualization and debugging.
	RecordTimeline bool
	// Check enables runtime invariant checking: cores never
	// oversubscribed, no start before submission, deterministic queue
	// order, the EASY head never delayed past its reservation,
	// conservative reservations never oversubscribing the future machine,
	// plus a post-run schedule audit (simref.CheckSchedule). Run returns
	// the first violation as an error. The checks cost a small constant
	// factor; they exist so every engine refactor can be exercised
	// against the reference oracle and the fuzzer. See check.go.
	Check bool
}

// TimelinePoint is one sample of the cluster state.
type TimelinePoint = schedcore.TimelinePoint

// JobStats records the outcome of one task.
type JobStats struct {
	Job        workload.Job
	Start      float64
	Finish     float64
	Wait       float64 // Start - Submit
	BSLD       float64 // bounded slowdown, Eq. 1
	Backfilled bool    // started ahead of a blocked higher-priority task
}

// Result is the outcome of a simulation run.
type Result struct {
	Stats []JobStats // one per input job, in input order

	AVEbsld     float64 // average bounded slowdown over all tasks (Eq. 2)
	MedianBSLD  float64
	P95BSLD     float64
	MaxBSLD     float64
	MeanWait    float64
	P95Wait     float64
	MaxWait     float64
	Makespan    float64 // last finish - first submit
	Utilization float64 // busy core-seconds / (cores * makespan)
	MaxQueueLen int
	Backfilled  int // number of tasks that started via backfilling

	// Timeline holds per-event cluster-state samples when
	// Options.RecordTimeline is set; nil otherwise.
	Timeline []TimelinePoint
}

// Errors returned by Run.
var (
	ErrNoPolicy = errors.New("sim: options require a policy")
	ErrNoCores  = errors.New("sim: platform needs at least one core")
)

// Platform is the homogeneous cluster: nmax identical cores, any
// interconnection topology (topology never enters the model, §3.1).
type Platform struct {
	Cores int
}

// Run simulates the on-line scheduling of jobs on the platform and returns
// per-job statistics and aggregate metrics. Jobs may be in any order; they
// are released at their submit times. Run never mutates jobs.
func Run(p Platform, jobs []workload.Job, opt Options) (*Result, error) {
	if err := validate(p, jobs, opt); err != nil {
		return nil, err
	}
	e := newCore(p, jobs, opt)
	e.RunBatch()
	res := assemble(e, jobs, p, opt)
	if opt.Check {
		if err := verify(e, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// validate rejects a run Run could not simulate.
func validate(p Platform, jobs []workload.Job, opt Options) error {
	if opt.Policy == nil {
		return ErrNoPolicy
	}
	if p.Cores <= 0 {
		return ErrNoCores
	}
	for i := range jobs {
		if err := jobs[i].Validate(p.Cores); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// AveBsld computes the average bounded slowdown over the stats for which
// keep returns true (Eq. 2 restricted to a task subset, as the trial engine
// needs: trials measure only the tasks of Q). A nil keep averages over all.
//
//gensched:allow deadlint reference oracle: the pooled trial engine's AveBsld over Q is checked against it
func AveBsld(stats []JobStats, keep func(JobStats) bool) float64 {
	var sum float64
	var n int
	for _, s := range stats {
		if keep == nil || keep(s) {
			sum += s.BSLD
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Bsld computes the bounded slowdown of a single task (Eq. 1).
func Bsld(wait, runtime, tau float64) float64 {
	if tau <= 0 {
		tau = DefaultTau
	}
	v := (wait + runtime) / math.Max(runtime, tau)
	if v < 1 {
		return 1
	}
	return v
}
