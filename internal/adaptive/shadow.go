package adaptive

import (
	"context"
	"fmt"

	"github.com/hpcsched/gensched/internal/runner"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/workload"
)

// shadowEval replays the observed window through the batch simulator once
// per policy — a digital-twin replay: the same jobs, the same machine,
// the same backfilling and estimate regime as the live cluster, with only
// the queue policy varied — and returns each policy's AveBsld over the
// window, in policy order.
//
// The replays fan out over the shared runner pool. Each one is a pure
// function of (window, policy, config) landing in its own slot, so the
// result is bit-identical for any worker count. sim.RunAveBsld builds no
// Result and reuses pooled engines, so the replays themselves allocate
// nothing once warm.
func shadowEval(ctx context.Context, win []workload.Job, cfg Config, policies []sched.Policy) ([]float64, error) {
	return runner.Map(ctx, cfg.Workers, len(policies), func(_ context.Context, i int) (float64, error) {
		return sim.RunAveBsld(sim.Platform{Cores: cfg.Cores}, win, sim.Options{
			Policy:        policies[i],
			UseEstimates:  cfg.UseEstimates,
			Backfill:      cfg.Backfill,
			BackfillOrder: cfg.BackfillOrder,
			Tau:           cfg.Tau,
		})
	})
}

// TrainWindow runs one retraining cycle on a fixed window outside any
// controller — the offline entry point the examples and tools use to fit
// an initial incumbent from historical traffic. It returns the shadow-
// evaluated candidates (in fit-rank order) and the matching ready-to-use
// policies, named W.1, W.2, ... Promotion logic does not apply; the
// caller picks (typically Decision-style, the lowest AveBsld).
func TrainWindow(win []workload.Job, cfg Config) ([]Candidate, []sched.Policy, error) {
	if cfg.Cores <= 0 {
		return nil, nil, ErrNoCores
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 1 // unused by a one-shot cycle, but New requires it
	}
	if cfg.Window < len(win) {
		cfg.Window = len(win) // keep the whole supplied window
	}
	c, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	for _, j := range win {
		c.Observe(j)
	}
	// A throwaway incumbent that never wins lets round() run unchanged;
	// its shadow result is discarded.
	d, err := c.round(0, sched.FCFS())
	if err != nil {
		return nil, nil, err
	}
	if d.Skipped {
		return nil, nil, &SkipError{Reason: d.Reason, Window: d.Window}
	}
	policies := make([]sched.Policy, len(d.Candidates))
	for i, cand := range d.Candidates {
		p, err := sched.ParseExpr(trainedName(i), cand.Expr)
		if err != nil {
			return nil, nil, err
		}
		policies[i] = p
	}
	return d.Candidates, policies, nil
}

func trainedName(i int) string { return fmt.Sprintf("W.%d", i+1) }

// SkipError reports that a one-shot TrainWindow could not retrain.
type SkipError struct {
	Reason string
	Window int
}

func (e *SkipError) Error() string {
	return "adaptive: window not trainable (" + e.Reason + ")"
}
