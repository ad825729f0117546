package sim

import (
	"math"
	"sync"

	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/stats"
	"github.com/hpcsched/gensched/internal/workload"
)

// The scheduling core — the typed event heap, the incrementally sorted
// running set, and the EASY/conservative backfilling passes — lives in
// internal/schedcore, shared with the incremental online scheduler
// (internal/online). This file is the batch driver: it registers every
// job up front, drains the core's event loop, and assembles the Result —
// or, for RunAveBsld, only the average bounded slowdown.

// newCore builds a schedcore engine configured for one batch run and
// preloads every job's arrival.
func newCore(p Platform, jobs []workload.Job, opt Options) *schedcore.Engine {
	e := schedcore.NewEngine(p.Cores, coreConfig(opt))
	load(e, jobs)
	return e
}

// coreConfig translates the run options for the scheduling core.
func coreConfig(opt Options) schedcore.Config {
	return schedcore.Config{
		Policy:         opt.Policy,
		UseEstimates:   opt.UseEstimates,
		Backfill:       opt.Backfill,
		BackfillOrder:  opt.BackfillOrder,
		KillAtEstimate: opt.KillAtEstimate,
		RecordTimeline: opt.RecordTimeline,
		Check:          opt.Check,
	}
}

// load registers every job, in input order, as a batch arrival: task
// index i is input index i.
func load(e *schedcore.Engine, jobs []workload.Job) {
	e.Grow(len(jobs))
	for i := range jobs {
		e.PushArrival(e.AddTask(jobs[i]))
	}
}

// enginePool recycles the batch engines of RunAveBsld; a reset engine
// keeps its buffers, so a warm replay allocates nothing.
var enginePool = sync.Pool{New: func() any { return new(schedcore.Engine) }}

// RunAveBsld replays jobs like Run and returns only the average bounded
// slowdown, bit-identical to Run(p, jobs, opt).AVEbsld, without building
// the Result: the schedule comes from a pooled engine (see
// schedcore.Engine.Reset) and the slowdowns are summed by MeanBsld. The
// digital twin of the adaptive loop calls it once per candidate policy.
// With opt.Check set it is Run, since the schedule audit needs the Result.
func RunAveBsld(p Platform, jobs []workload.Job, opt Options) (float64, error) {
	if opt.Check {
		res, err := Run(p, jobs, opt)
		if err != nil {
			return 0, err
		}
		return res.AVEbsld, nil
	}
	if err := validate(p, jobs, opt); err != nil {
		return 0, err
	}
	e := enginePool.Get().(*schedcore.Engine)
	defer enginePool.Put(e)
	return replayAveBsld(e, p, jobs, opt), nil
}

// replayAveBsld is RunAveBsld on a given engine, which it resets first.
func replayAveBsld(e *schedcore.Engine, p Platform, jobs []workload.Job, opt Options) float64 {
	cfg := coreConfig(opt)
	cfg.RecordTimeline = false // never read; the samples would allocate
	e.Reset(p.Cores, cfg)
	load(e, jobs)
	e.RunBatch()
	return MeanBsld(e, 0, len(jobs), opt.Tau)
}

// MeanBsld is Eq. 2 over the tasks with indices lo..hi-1 of a drained
// batch engine whose task index i holds input job i. It sums Bsld in
// index order from zero with AssembleResult's expression (wait = Start -
// Submit, the job's actual runtime, τ), so over every task it is
// bit-identical to Result.AVEbsld, including 0 for no tasks. Every
// shortcut around Run that reports an AveBsld goes through it: RunAveBsld
// and the training pipeline's permutation trials, which score only the
// tuple's Q tasks.
func MeanBsld(e *schedcore.Engine, lo, hi int, tau float64) float64 {
	if hi <= lo {
		return 0
	}
	var sum float64
	for i := lo; i < hi; i++ {
		t := e.Task(i)
		sum += Bsld(t.Start-t.Job.Submit, t.Job.Runtime, tau)
	}
	return sum / float64(hi-lo)
}

// Outcome is the per-task scheduling verdict AssembleResult consumes:
// where the task ran and for how long. Execution is the time the task
// actually occupied its cores (the actual runtime, or the estimate under
// KillAtEstimate); it is carried explicitly rather than recomputed as
// Finish-Start so aggregate metrics are bit-identical no matter which
// engine produced the placement.
type Outcome struct {
	Start      float64
	Finish     float64
	Execution  float64
	Backfilled bool
}

// AssembleResult computes per-job statistics and aggregate metrics from
// placements in input order, with exactly the floating-point expressions
// and accumulation order the batch engine has always used — the batch
// result and the online replay result are assembled by this one routine,
// so a bit-identical schedule yields a bit-identical Result. The caller
// fills MaxQueueLen, Backfilled and Timeline afterward. MeanBsld repeats
// the AVEbsld expression and order; change the two together.
func AssembleResult(jobs []workload.Job, outs []Outcome, cores int, tau float64) *Result {
	if tau <= 0 {
		tau = DefaultTau
	}
	res := &Result{Stats: make([]JobStats, len(jobs))}
	if len(jobs) == 0 {
		return res
	}
	firstSubmit := math.Inf(1)
	lastFinish := math.Inf(-1)
	var sumB, sumW, busy float64
	for i := range jobs {
		j := &jobs[i]
		o := &outs[i]
		wait := o.Start - j.Submit
		b := Bsld(wait, j.Runtime, tau)
		res.Stats[i] = JobStats{
			Job:        *j,
			Start:      o.Start,
			Finish:     o.Finish,
			Wait:       wait,
			BSLD:       b,
			Backfilled: o.Backfilled,
		}
		sumB += b
		sumW += wait
		busy += o.Execution * float64(j.Cores)
		if j.Submit < firstSubmit {
			firstSubmit = j.Submit
		}
		if o.Finish > lastFinish {
			lastFinish = o.Finish
		}
		if b > res.MaxBSLD {
			res.MaxBSLD = b
		}
		if wait > res.MaxWait {
			res.MaxWait = wait
		}
	}
	n := float64(len(jobs))
	res.AVEbsld = sumB / n
	res.MeanWait = sumW / n
	res.Makespan = lastFinish - firstSubmit
	if res.Makespan > 0 {
		res.Utilization = busy / (float64(cores) * res.Makespan)
	}
	bslds := make([]float64, len(res.Stats))
	waits := make([]float64, len(res.Stats))
	for i, s := range res.Stats {
		bslds[i], waits[i] = s.BSLD, s.Wait
	}
	res.MedianBSLD = stats.Median(bslds)
	res.P95BSLD = stats.Quantile(bslds, 0.95)
	res.P95Wait = stats.Quantile(waits, 0.95)
	return res
}

// assemble reads the drained core back into a Result.
func assemble(e *schedcore.Engine, jobs []workload.Job, p Platform, opt Options) *Result {
	outs := make([]Outcome, len(jobs))
	for i := range jobs {
		t := e.Task(i)
		outs[i] = Outcome{Start: t.Start, Finish: t.Finish, Execution: t.Execution, Backfilled: t.Backfill}
	}
	res := AssembleResult(jobs, outs, p.Cores, opt.Tau)
	res.MaxQueueLen = e.MaxQueueLen()
	res.Backfilled = e.BackfilledCount()
	res.Timeline = e.Timeline()
	return res
}
