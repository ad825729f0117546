// Package adaptive closes the loop the paper leaves open: the offline
// pipeline (simulate → score → regress, §3.2–3.3) produces a policy once,
// from a workload model fixed in advance, and the policy stays frozen no
// matter what the cluster actually serves. The adaptive Controller
// re-runs that same pipeline continuously, from observed traffic:
//
//  1. it maintains a sliding window of recently observed jobs from an
//     online scheduler's stream (Observe),
//  2. characterizes the window — empirical r/n/s marginals, offered
//     load, allocation granularity — and measures drift since the last
//     retraining round (Characterize/DriftFrom),
//  3. regenerates window-matched training tuples via the trainer's trial
//     machinery, sampling S and Q from the window instead of the raw
//     Lublin model (trainer.SampleTuple + trainer.ScoreTuple),
//  4. refits the full 576-candidate function family under the paper's
//     Eq. 4 weighting (mlfit.FitAll) and keeps the top-k behaviorally
//     distinct fits,
//  5. shadow-evaluates the candidates against the incumbent policy by
//     replaying the window through the batch simulator (a digital-twin
//     replay, parallel over the shared runner pool), and
//  6. recommends promoting the best candidate only when it beats the
//     incumbent's window AveBsld by a configurable margin, with a
//     cool-down between promotions to prevent thrash.
//
// The Controller is passive and single-threaded by design: Observe
// records arrivals, Tick is called whenever the logical clock advances
// and runs at most one adaptation round per configured interval. Every
// stochastic step derives from explicit split seeds — (Seed, round,
// tuple) — and every parallel stage reduces deterministically, so the
// whole loop is reproducible bit for bit for any worker count (the
// differential test pins this). Callers that need concurrency wrap the
// Controller in their own lock, exactly like online.Scheduler.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/mlfit"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/trainer"
	"github.com/hpcsched/gensched/internal/workload"
)

// Config configures a Controller. The zero value of every sizing field
// selects a default; at the default sizing one adaptation round costs a
// few hundred milliseconds (BenchmarkAdaptiveLoop tracks it) — rounds
// run inline on the scheduler thread, so shrink Tuples/Trials if that
// stall matters more than fit quality.
type Config struct {
	// Cores is the machine size jobs are observed on; retraining tuples
	// and shadow replays use the same size (required).
	Cores int
	// Backfill, BackfillOrder, UseEstimates and Tau describe how the live
	// cluster schedules; shadow replays reproduce them so the comparison
	// measures the policy, not a configuration difference.
	Backfill      sim.BackfillMode
	BackfillOrder sched.Policy
	UseEstimates  bool
	Tau           float64

	// Window is the sliding-window capacity in jobs (default 512).
	Window int
	// MinWindow is the fewest observed jobs a retraining round needs;
	// rounds before that are skipped (default 64).
	MinWindow int
	// Interval is the logical-clock seconds between adaptation rounds
	// (required > 0). Tick runs at most one round per interval.
	Interval float64
	// Now is the clock at which the loop attaches; the first round comes
	// due at Now + Interval. Zero for a fresh cluster. Without it a loop
	// attached to a long-running scheduler would see its first
	// opportunity centuries overdue and fire on the very next request.
	Now float64
	// MinDrift skips retraining when the window's characterization has
	// moved less than this many nats since the last round — the loop
	// idles while traffic is stationary. 0 retrains every round.
	MinDrift float64

	// SSize, QSize, Tuples and Trials size the window-matched training
	// set: Tuples (S,Q) draws of |S|=SSize, |Q|=QSize jobs, scored with
	// Trials balanced permutation trials each (Tuples and Trials default
	// to 4 and 256). SSize and QSize default to 0 = auto: each round
	// sizes the tuples from the window's mean core request so the trials
	// see real contention whatever the observed mix (see autoTupleSize);
	// a flood of narrow jobs needs far larger task sets than the paper's
	// 16/32 to congest the machine at all.
	SSize, QSize, Tuples, Trials int
	// TopK is how many behaviorally distinct fitted candidates are
	// shadow-evaluated (default 3).
	TopK int
	// Margin is the relative window-AveBsld improvement a candidate must
	// show over the incumbent to be promoted (default 0.05 = 5%).
	Margin float64
	// Cooldown is the minimum logical time between promotions; rounds
	// inside it skip retraining entirely (default: two Intervals, so the
	// round immediately after a promotion always sits out).
	Cooldown float64
	// Workers bounds the parallelism of trial scoring, candidate fitting
	// and shadow replay (0 = GOMAXPROCS). The result never depends on it.
	Workers int
	// Seed drives every stochastic choice of the loop.
	Seed uint64

	// Queue optionally probes the live cluster's waiting queue at
	// retraining time. When set, shadow replays merge the waiting jobs
	// into the observed window (deduplicated by job ID), so the digital
	// twin reproduces the cluster's actual backlog. Without it the twin
	// replays recent arrivals onto an empty machine, and a deeply
	// backlogged cluster can shadow-evaluate a stale incumbent as
	// healthy: the damage lives in the queue, not in the last hour of
	// arrivals. The callback runs inside Tick, under whatever lock the
	// caller serializes the scheduler with.
	Queue func() []workload.Job

	// Telemetry, when non-nil, observes every round verdict (drift nats,
	// skip reason, promotions). The sink is only ever written from Tick —
	// the worker pools inside a round emit nothing — so the recorded
	// stream is identical for any Workers value. Nil disables
	// instrumentation at the cost of one nil check per round.
	Telemetry *telemetry.Sink
}

// Errors returned by the Controller.
var (
	ErrNoCores    = errors.New("adaptive: config requires a positive core count")
	ErrNoInterval = errors.New("adaptive: config requires a positive interval")
	ErrNoPolicy   = errors.New("adaptive: tick requires the incumbent policy")
)

func (cfg Config) withDefaults() Config {
	if cfg.Window <= 0 {
		cfg.Window = 512
	}
	if cfg.MinWindow <= 0 {
		cfg.MinWindow = 64
	}
	if cfg.MinWindow < 2 {
		cfg.MinWindow = 2
	}
	if cfg.MinWindow > cfg.Window {
		// A threshold the ring can never reach would idle the loop
		// forever with nothing but "window too small" skips to show for
		// it; retraining on a full window is the closest honest reading.
		cfg.MinWindow = cfg.Window
	}
	if cfg.Tuples <= 0 {
		cfg.Tuples = 4
	}
	if cfg.Trials <= 0 {
		cfg.Trials = 256
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 3
	}
	if cfg.Margin <= 0 {
		cfg.Margin = 0.05
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * cfg.Interval
	}
	return cfg
}

// Candidate is one fitted function after shadow evaluation.
type Candidate struct {
	Expr    string  // compact textual form, ready for sched.ParseExpr
	Rank    float64 // Eq. 5 fit rank (mean absolute error)
	AveBsld float64 // window-replay average bounded slowdown
}

// Decision records one adaptation round. The sequence of decisions —
// retrain instants, fitted expressions, promotion choices — is the loop's
// observable behavior, and is deterministic for a fixed seed and stream.
type Decision struct {
	At float64 // logical-clock instant of the round
	// Round is the 1-based retraining round; it is 0 when the
	// opportunity was skipped before retraining began (window too small,
	// cooling down, stationary) and nonzero whenever training ran, even
	// if the round then produced nothing to promote.
	Round      int
	Window     int // jobs in the window at the time
	ShadowJobs int // jobs in the shadow replay (window ∪ live queue)

	Char  Characterization
	Drift float64 // nats since the last retraining round (+Inf on the first)

	// Skipped rounds did not retrain; Reason says why ("window too
	// small", "stationary", "cooling down"). Retrained rounds carry the
	// candidates and the promotion outcome, with Reason "promoted" or
	// "margin not met".
	Skipped bool
	Reason  string

	// SSize and QSize are the tuple sizes the round trained with (the
	// auto-sized values when Config left them 0).
	SSize, QSize int

	Incumbent     string  // incumbent policy name
	IncumbentBsld float64 // incumbent's window-replay AveBsld
	Candidates    []Candidate

	Promoted   bool
	PolicyExpr string       // compact form of the promoted policy
	Policy     sched.Policy // the promoted policy, ready to swap in
}

// Best returns the index of the strongest candidate (lowest shadow
// AveBsld, ties to the better fit rank), or -1 if there are none.
func (d *Decision) Best() int {
	best := -1
	for i, c := range d.Candidates {
		if best < 0 || c.AveBsld < d.Candidates[best].AveBsld {
			best = i
		}
	}
	return best
}

// Controller is the closed-loop retraining state machine. It is not safe
// for concurrent use; callers serialize Observe and Tick the same way
// they serialize the scheduler the observations come from.
type Controller struct {
	cfg Config
	win *window

	anchor      float64 // attach-time clock; round grid is anchor + k·Interval
	nextCheck   float64
	lastChar    *Characterization
	lastPromote float64
	rounds      int // completed (non-skipped) retraining rounds
	promotions  int
	history     []Decision
}

// New builds a Controller. The first adaptation round is due once the
// logical clock reaches Config.Now + Interval.
func New(cfg Config) (*Controller, error) {
	if cfg.Cores <= 0 {
		return nil, ErrNoCores
	}
	if cfg.Interval <= 0 {
		return nil, ErrNoInterval
	}
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:         cfg,
		win:         newWindow(cfg.Window),
		anchor:      cfg.Now,
		nextCheck:   cfg.Now + cfg.Interval,
		lastPromote: math.Inf(-1),
	}, nil
}

// Observe records one observed job arrival into the sliding window. In
// this reproduction the job carries its runtime, so observation at
// arrival is exact; a production deployment would observe at completion
// instead, once the runtime is known, with no other change to the loop.
func (c *Controller) Observe(j workload.Job) { c.win.add(j) }

// Tick runs at most one adaptation round: if the clock has not reached
// the next scheduled round, it returns (nil, nil); otherwise it evaluates
// the window against the incumbent policy and returns the Decision. The
// caller applies a promoted Decision.Policy to its scheduler — the
// Controller never touches the scheduler itself, which is what keeps the
// loop deterministic and testable.
//
// Round instants are a deterministic function of the clock sequence: the
// k-th opportunity is at k·Interval, and opportunities the clock jumped
// over collapse into one round.
func (c *Controller) Tick(now float64, incumbent sched.Policy) (*Decision, error) {
	if incumbent == nil {
		return nil, ErrNoPolicy
	}
	if now < c.nextCheck {
		return nil, nil
	}
	// Closed form, not a catch-up loop: a clock jump of any size (a
	// daemon advanced far into the future) must not cost one iteration
	// per skipped opportunity.
	c.nextCheck = c.anchor + (math.Floor((now-c.anchor)/c.cfg.Interval)+1)*c.cfg.Interval
	d, err := c.round(now, incumbent)
	if err != nil {
		return nil, err
	}
	drift := d.Drift
	if drift == 0 {
		// Early skips ("window too small", "cooling down") never compute
		// a drift; keep the zero out of the drift histogram. A computed
		// drift of exactly 0 nats is indistinguishable and equally
		// uninformative.
		drift = math.NaN()
	}
	c.cfg.Telemetry.AdaptRound(now, d.Round, d.Reason, drift, d.Promoted)
	c.history = append(c.history, *d)
	if len(c.history) > maxHistory {
		c.history = append(c.history[:0], c.history[len(c.history)-maxHistory:]...)
	}
	return d, nil
}

// maxHistory bounds the retained decision log: a daemon ticking every
// interval for months must not leak one Decision per round forever.
const maxHistory = 512

// round evaluates one adaptation opportunity.
func (c *Controller) round(now float64, incumbent sched.Policy) (*Decision, error) {
	d := &Decision{At: now, Window: c.win.len(), Incumbent: incumbent.Name()}
	skip := func(reason string) *Decision {
		d.Skipped = true
		d.Reason = reason
		return d
	}
	if c.win.len() < c.cfg.MinWindow {
		return skip("window too small"), nil
	}
	if c.promotions > 0 && now-c.lastPromote < c.cfg.Cooldown {
		return skip("cooling down"), nil
	}
	win := c.win.snapshot()
	d.Char = Characterize(win, c.cfg.Cores)
	d.Drift = math.Inf(1)
	if c.lastChar != nil {
		d.Drift = d.Char.DriftFrom(*c.lastChar)
		if c.cfg.MinDrift > 0 && d.Drift < c.cfg.MinDrift {
			return skip("stationary"), nil
		}
	}

	// Retrain: window-matched tuples, scored with the paper's trial
	// machinery, fitted across the whole candidate family.
	roundSeed := dist.Split(c.cfg.Seed, uint64(c.rounds))
	c.rounds++
	d.Round = c.rounds
	d.SSize, d.QSize = c.cfg.SSize, c.cfg.QSize
	if d.SSize <= 0 || d.QSize <= 0 {
		s, q := autoTupleSize(d.Char, c.cfg.Cores)
		if d.SSize <= 0 {
			d.SSize = s
		}
		if d.QSize <= 0 {
			d.QSize = q
		}
	}
	var samples []mlfit.Sample
	for i := 0; i < c.cfg.Tuples; i++ {
		sub := dist.Split(roundSeed, uint64(i))
		tuple, err := trainer.SampleTuple(win, d.SSize, d.QSize, c.cfg.Cores, sub)
		if err != nil {
			return nil, fmt.Errorf("adaptive: round %d: %w", d.Round, err)
		}
		ts, err := trainer.ScoreTuple(tuple, trainer.TrialConfig{
			Trials:  c.cfg.Trials,
			Tau:     c.cfg.Tau,
			Workers: c.cfg.Workers,
			Seed:    dist.Split(sub, 1),
		})
		if err != nil {
			return nil, fmt.Errorf("adaptive: round %d: %w", d.Round, err)
		}
		samples = append(samples, ts.Samples...)
	}
	ranked, err := mlfit.FitAll(samples, mlfit.Options{Workers: c.cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("adaptive: round %d: %w", d.Round, err)
	}
	top := mlfit.TopDistinct(ranked, c.cfg.TopK)

	// Shadow evaluation: candidates and incumbent replay the recent
	// traffic — the observed window merged with the live backlog — on a
	// digital twin of the cluster.
	policies := make([]sched.Policy, 0, len(top)+1)
	policies = append(policies, incumbent)
	d.Candidates = make([]Candidate, 0, len(top))
	for i, r := range top {
		f, _ := r.Func.Simplified()
		policies = append(policies, sched.Expr(fmt.Sprintf("A%d.%d", d.Round, i+1), f))
		d.Candidates = append(d.Candidates, Candidate{Expr: f.Compact(), Rank: r.Rank})
	}
	shadowWin := c.shadowWorkload(win)
	d.ShadowJobs = len(shadowWin)
	bslds, err := c.shadow(shadowWin, policies)
	if err != nil {
		return nil, fmt.Errorf("adaptive: round %d: %w", d.Round, err)
	}
	d.IncumbentBsld = bslds[0]
	for i := range d.Candidates {
		d.Candidates[i].AveBsld = bslds[i+1]
	}

	// Promotion: the strongest candidate must beat the incumbent's
	// window AveBsld by the margin.
	c.lastChar = &d.Char
	best := d.Best()
	if best < 0 {
		return skip("no candidates"), nil
	}
	if bc := d.Candidates[best]; bc.AveBsld < d.IncumbentBsld*(1-c.cfg.Margin) {
		d.Promoted = true
		d.Reason = "promoted"
		d.PolicyExpr = bc.Expr
		d.Policy = policies[best+1]
		c.promotions++
		c.lastPromote = now
	} else {
		d.Reason = "margin not met"
	}
	return d, nil
}

// shadow replays the workload through the batch simulator under each
// policy in parallel and returns their AveBsld values in policy order.
// The replays share no state and each lands in its own slot, so the
// result is identical for any worker count.
func (c *Controller) shadow(win []workload.Job, policies []sched.Policy) ([]float64, error) {
	return shadowEval(context.Background(), win, c.cfg, policies)
}

// shadowWorkload assembles the digital twin's workload: the observed
// window, plus every job still waiting in the live queue that the window
// has already rotated past (or that arrived before it began), in one
// submit-ordered stream. Replaying the backlog is what lets the twin see
// the congestion the incumbent actually caused.
func (c *Controller) shadowWorkload(win []workload.Job) []workload.Job {
	if c.cfg.Queue == nil {
		return win
	}
	queued := c.cfg.Queue()
	if len(queued) == 0 {
		return win
	}
	// Dedup by (ID, Submit), not ID alone: the online scheduler permits
	// reusing the ID of a completed job, so a recycled ID can denote a
	// waiting job distinct from the window entry that shares its number.
	type jobKey struct {
		id     int
		submit float64
	}
	seen := make(map[jobKey]bool, len(win))
	for _, j := range win {
		seen[jobKey{j.ID, j.Submit}] = true
	}
	merged := append(make([]workload.Job, 0, len(win)+len(queued)), win...)
	for _, j := range queued {
		if !seen[jobKey{j.ID, j.Submit}] {
			merged = append(merged, j)
		}
	}
	sort.SliceStable(merged, func(i, k int) bool {
		if merged[i].Submit != merged[k].Submit {
			return merged[i].Submit < merged[k].Submit
		}
		return merged[i].ID < merged[k].ID
	})
	return merged
}

// Decisions returns the adaptation history (the most recent maxHistory
// rounds), oldest first. The slice is shared; callers must not mutate it.
func (c *Controller) Decisions() []Decision { return c.history }

// LastDecision returns the most recent adaptation round, or nil.
func (c *Controller) LastDecision() *Decision {
	if len(c.history) == 0 {
		return nil
	}
	return &c.history[len(c.history)-1]
}

// Promotions returns how many rounds promoted a new policy.
func (c *Controller) Promotions() int { return c.promotions }

// Rounds returns how many rounds actually retrained (skips excluded).
func (c *Controller) Rounds() int { return c.rounds }

// WindowLen returns the current number of observed jobs in the window.
func (c *Controller) WindowLen() int { return c.win.len() }

// NextCheck returns the logical instant of the next adaptation round.
func (c *Controller) NextCheck() float64 { return c.nextCheck }
