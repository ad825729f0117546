// Package simtest is the differential test harness shared by the sim
// package's oracle tests, the engine fuzzer and any future engine
// refactor: it generates adversarial random workloads, runs the optimized
// engine and the simref oracle on identical inputs, and reports the first
// divergence.
package simtest

import (
	"fmt"
	"math"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/simref"
	"github.com/hpcsched/gensched/internal/workload"
)

// RandomJobs draws a workload designed to exercise the engine's edge
// paths, not to look realistic: bursty arrivals (identical submit times),
// quantized runtimes (policy-score ties), underestimates (perceived-finish
// clamping), overestimates, exact estimates, and occasional full-machine
// jobs (head reservations that drain the whole running set).
func RandomJobs(rng *dist.RNG, n, maxCores int) []workload.Job {
	jobs := make([]workload.Job, n)
	now := 0.0
	for i := range jobs {
		if rng.Float64() >= 0.3 { // 30%: burst arrival at the same instant
			now += rng.Float64() * 40
		}
		var r float64
		if rng.Float64() < 0.25 {
			r = float64(1+rng.IntN(8)) * 25 // quantized: forces score and finish ties
		} else {
			r = 1 + rng.Float64()*600
		}
		e := r
		switch rng.IntN(3) {
		case 0:
			e = r * (1 + rng.Float64()*2) // overestimate, the common case
		case 1:
			e = math.Max(1, r*rng.Float64()) // underestimate: clamped perceived finishes
		}
		c := 1 + rng.IntN(maxCores)
		if rng.Float64() < 0.05 {
			c = maxCores // full-machine job: shadow needs every release
		}
		jobs[i] = workload.Job{ID: i + 1, Submit: now, Runtime: r, Estimate: e, Cores: c}
	}
	return jobs
}

// IntegerJobs is RandomJobs with every time drawn on the integer grid:
// submits, runtimes and estimates are whole seconds, so every schedule
// time any engine derives (starts, shadow times, perceived finishes) is an
// exactly-representable integer sum. Tie densities go up — many equal
// scores and simultaneous releases — and time arithmetic becomes exact,
// which is what the mid-stream policy-swap differential needs: a swap at
// a half-integer instant T falls strictly between any two event times, so
// "before T" and "after T" are unambiguous in floating point.
func IntegerJobs(rng *dist.RNG, n, maxCores int) []workload.Job {
	jobs := RandomJobs(rng, n, maxCores)
	for i := range jobs {
		jobs[i].Submit = math.Floor(jobs[i].Submit)
		jobs[i].Runtime = math.Max(1, math.Floor(jobs[i].Runtime))
		jobs[i].Estimate = math.Max(1, math.Floor(jobs[i].Estimate))
	}
	return jobs
}

// ShuffledJobs is IntegerJobs handed over out of submit order. The engine
// must sort its arrivals by submit time, keeping input order among equal
// submits. Bursts give equal submits, and on the integer grid many
// arrivals land exactly on a completion instant, where the arrival must
// join the scheduling pass that sees the released cores.
func ShuffledJobs(rng *dist.RNG, n, maxCores int) []workload.Job {
	jobs := IntegerJobs(rng, n, maxCores)
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// SwitchPolicy builds the batch-engine reference for a mid-stream policy
// hot-swap: a time-varying policy that ranks with `before` at scheduling
// passes strictly earlier than `at` and with `after` from `at` on. Both
// wrapped policies must be static (their scores ignore Wait): the wrapper
// reconstructs the pass time as Submit+Wait, which is exact whenever event
// times are exactly representable (see IntegerJobs). Replaying a stream
// through the online scheduler with a SetPolicy(after) call at time `at`
// must match a batch run under SwitchPolicy — the swap-validation
// differential.
func SwitchPolicy(at float64, before, after sched.Policy) sched.Policy {
	name := fmt.Sprintf("SWITCH(%s->%s@%g)", before.Name(), after.Name(), at)
	return sched.New(name, true, func(v sched.JobView) float64 {
		if v.Submit+v.Wait >= at {
			return after.Score(v)
		}
		return before.Score(v)
	})
}

// Modes is the backfill matrix every differential sweep covers.
var Modes = []sim.BackfillMode{sim.BackfillNone, sim.BackfillEASY, sim.BackfillConservative}

// RefMode translates a sim backfill mode for the oracle.
func RefMode(m sim.BackfillMode) simref.Mode {
	switch m {
	case sim.BackfillEASY:
		return simref.ModeEASY
	case sim.BackfillConservative:
		return simref.ModeConservative
	default:
		return simref.ModeNone
	}
}

// Placements converts an engine result for simref.Compare/CheckSchedule.
func Placements(res *sim.Result) []simref.Placement {
	out := make([]simref.Placement, len(res.Stats))
	for i, s := range res.Stats {
		out[i] = simref.Placement{Job: s.Job, Start: s.Start, Finish: s.Finish, Backfilled: s.Backfilled}
	}
	return out
}

// Differential runs the optimized engine (with invariant checking on) and
// the reference oracle on the same input and requires bit-identical
// schedules. The sim options' Backfill field selects the oracle mode.
func Differential(cores int, jobs []workload.Job, opt sim.Options) error {
	opt.Check = true
	res, err := sim.Run(sim.Platform{Cores: cores}, jobs, opt)
	if err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	ref, err := simref.Run(cores, jobs, simref.Options{
		Policy:         opt.Policy,
		BackfillOrder:  opt.BackfillOrder,
		Mode:           RefMode(opt.Backfill),
		UseEstimates:   opt.UseEstimates,
		KillAtEstimate: opt.KillAtEstimate,
	})
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if err := simref.CheckSchedule(cores, ref); err != nil {
		return fmt.Errorf("oracle schedule: %w", err)
	}
	if err := simref.Compare(Placements(res), ref); err != nil {
		return fmt.Errorf("engine diverged from oracle (%s, estimates=%v, kill=%v): %w",
			opt.Backfill, opt.UseEstimates, opt.KillAtEstimate, err)
	}
	return nil
}
