package sim_test

// The differential harness: the optimized engine must produce schedules
// bit-identical to the internal/simref oracle on hundreds of randomized
// adversarial workloads, across every backfill mode, with actual runtimes
// and with user estimates (including underestimates, which exercise the
// clamped perceived-finish paths), under both static and time-varying
// policies, with and without an EASY candidate-order policy, and with
// KillAtEstimate. Invariant checking (Options.Check) is on for every
// engine run, so the online checker is exercised on the same corpus.

import (
	"cmp"
	"slices"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/simref"
	"github.com/hpcsched/gensched/internal/simtest"
	"github.com/hpcsched/gensched/internal/workload"
)

func TestDifferentialOracle(t *testing.T) {
	workloads := 500
	if testing.Short() {
		workloads = 60
	}
	policies := []sched.Policy{sched.FCFS(), sched.SPT(), sched.F1(), sched.WFP3(), sched.UNICEF(), sched.SAF()}
	root := dist.New(20260729)
	for wi := 0; wi < workloads; wi++ {
		rng := root.Split(uint64(wi))
		n := 20 + rng.IntN(41)    // 20..60 jobs
		cores := 4 + rng.IntN(29) // 4..32 cores
		jobs := simtest.RandomJobs(rng, n, cores)
		policy := policies[wi%len(policies)]
		var order sched.Policy
		if wi%5 == 0 {
			order = sched.SPT() // EASY-SJBF candidate order on a fifth of the corpus
		}
		kill := wi%7 == 0
		for _, mode := range simtest.Modes {
			for _, est := range []bool{false, true} {
				err := simtest.Differential(cores, jobs, sim.Options{
					Policy:         policy,
					Backfill:       mode,
					BackfillOrder:  order,
					UseEstimates:   est,
					KillAtEstimate: kill,
				})
				if err != nil {
					t.Fatalf("workload %d (%s, n=%d, cores=%d): %v", wi, policy.Name(), n, cores, err)
				}
			}
		}
	}
}

// TestDifferentialOracleFixedOrder covers the PolicyWithID path (the
// trial engine's FixedOrder permutations) against the oracle.
func TestDifferentialOracleFixedOrder(t *testing.T) {
	root := dist.New(77)
	for wi := 0; wi < 20; wi++ {
		rng := root.Split(uint64(wi))
		jobs := simtest.RandomJobs(rng, 30, 8)
		rank := make(map[int]int, len(jobs))
		for i := range jobs { // a deterministic shuffle of priorities
			rank[jobs[i].ID] = int(rng.Uint64() % 1000)
		}
		for _, mode := range simtest.Modes {
			if err := simtest.Differential(8, jobs, sim.Options{
				Policy:   sched.FixedOrder(rank),
				Backfill: mode,
			}); err != nil {
				t.Fatalf("workload %d: %v", wi, err)
			}
		}
	}
}

// TestDifferentialOracleShuffled hands the engine its jobs out of submit
// order (simtest.ShuffledJobs), so the engine sorts its arrivals before
// the event loop. The oracle scans its tasks in input order and needs no
// sort. Each schedule must match the oracle and, job by job, the schedule
// of the same jobs in submit order: (score, submit, ID) orders the queue
// totally, so input order must not change any decision. The corpus must
// also really contain equal submits and arrivals exactly on a completion
// instant.
func TestDifferentialOracleShuffled(t *testing.T) {
	workloads := 200
	if testing.Short() {
		workloads = 30
	}
	policies := []sched.Policy{sched.FCFS(), sched.SPT(), sched.F2(), sched.WFP3()}
	root := dist.New(20261017)
	var bursts, onCompletion int
	for wi := 0; wi < workloads; wi++ {
		rng := root.Split(uint64(wi))
		n := 20 + rng.IntN(41)
		cores := 4 + rng.IntN(13)
		jobs := simtest.ShuffledJobs(rng, n, cores)
		sorted := slices.Clone(jobs)
		slices.SortStableFunc(sorted, func(a, b workload.Job) int { return cmp.Compare(a.Submit, b.Submit) })
		policy := policies[wi%len(policies)]
		for _, mode := range simtest.Modes {
			for _, est := range []bool{false, true} {
				opt := sim.Options{Policy: policy, Backfill: mode, UseEstimates: est, KillAtEstimate: wi%5 == 0}
				if err := simtest.Differential(cores, jobs, opt); err != nil {
					t.Fatalf("workload %d (%s, n=%d, cores=%d): %v", wi, policy.Name(), n, cores, err)
				}
				got, err := sim.Run(sim.Platform{Cores: cores}, jobs, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := sim.Run(sim.Platform{Cores: cores}, sorted, opt)
				if err != nil {
					t.Fatal(err)
				}
				byID := make(map[int]sim.JobStats, n)
				finishes := make(map[float64]bool, n)
				for _, s := range want.Stats {
					byID[s.Job.ID] = s
					finishes[s.Finish] = true
				}
				for _, s := range got.Stats {
					if w := byID[s.Job.ID]; s.Start != w.Start || s.Finish != w.Finish || s.Backfilled != w.Backfilled {
						t.Fatalf("workload %d (%s, %s, est=%v): job %d placed at %v..%v shuffled, %v..%v sorted",
							wi, policy.Name(), mode, est, s.Job.ID, s.Start, s.Finish, w.Start, w.Finish)
					}
				}
				for i := range sorted {
					if i > 0 && sorted[i].Submit == sorted[i-1].Submit {
						bursts++
					}
					if finishes[sorted[i].Submit] {
						onCompletion++
					}
				}
			}
		}
	}
	if bursts == 0 || onCompletion == 0 {
		t.Fatalf("corpus lacks the edge cases: %d equal submits, %d arrivals on a completion instant", bursts, onCompletion)
	}
}

// TestCheckCatchesCorruptedSchedule makes sure the auditor is not
// vacuous: a hand-corrupted schedule must be rejected.
func TestCheckCatchesCorruptedSchedule(t *testing.T) {
	jobs := simtest.RandomJobs(dist.New(5), 40, 8)
	res, err := sim.Run(sim.Platform{Cores: 8}, jobs, sim.Options{Policy: sched.FCFS()})
	if err != nil {
		t.Fatal(err)
	}
	// Start a job before its submission.
	early := simtest.Placements(res)
	early[3].Start = early[3].Job.Submit - 10
	if err := simref.CheckSchedule(8, early); err == nil {
		t.Error("start-before-submit accepted")
	}
	// Oversubscribe: squash every job onto its submission instant on a
	// machine too small to hold them all.
	squash := simtest.Placements(res)
	for i := range squash {
		squash[i].Start = squash[i].Job.Submit
		squash[i].Finish = squash[i].Start + squash[i].Job.Runtime
	}
	if err := simref.CheckSchedule(2, squash); err == nil {
		t.Error("oversubscribed schedule accepted on a 2-core machine")
	}
	// The untouched schedule passes.
	if err := simref.CheckSchedule(8, simtest.Placements(res)); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}
