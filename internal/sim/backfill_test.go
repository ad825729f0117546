package sim

import (
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/workload"
)

// --- end-to-end backfilling edge cases ------------------------------------

func TestEASYWithUnderestimatedRuntimes(t *testing.T) {
	// Job A underestimates its runtime (e < r). EASY believes cores free
	// earlier than they are; the schedule must stay feasible regardless.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 200, Estimate: 50, Cores: 3},
		{ID: 2, Submit: 10, Runtime: 100, Estimate: 100, Cores: 4},
		{ID: 3, Submit: 20, Runtime: 30, Estimate: 30, Cores: 1},
	}
	res := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), Backfill: BackfillEASY, UseEstimates: true})
	checkNoOversubscription(t, 4, res.Stats)
	// Job 3 fits beside job 1 (1 core free) and is believed to finish by
	// the (stale) shadow; it must backfill at its arrival.
	if res.Stats[2].Start != 20 {
		t.Errorf("job 3 start = %v, want 20", res.Stats[2].Start)
	}
	// Job 2 can only start when job 1 actually ends.
	if res.Stats[1].Start != 200 {
		t.Errorf("job 2 start = %v, want 200", res.Stats[1].Start)
	}
}

func TestConservativeManyReservations(t *testing.T) {
	// A chain of full-machine jobs all get reservations; a stream of small
	// jobs may only run in the gaps that delay nobody.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Estimate: 100, Cores: 4},
		{ID: 2, Submit: 1, Runtime: 100, Estimate: 100, Cores: 4},
		{ID: 3, Submit: 2, Runtime: 100, Estimate: 100, Cores: 4},
		{ID: 4, Submit: 3, Runtime: 5, Estimate: 5, Cores: 1},
	}
	res := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), Backfill: BackfillConservative})
	// No gaps exist (full-machine jobs back to back): job 4 runs last.
	if res.Stats[3].Start != 300 {
		t.Errorf("small job start = %v, want 300", res.Stats[3].Start)
	}
	for i, wantStart := range []float64{0, 100, 200} {
		if res.Stats[i].Start != wantStart {
			t.Errorf("job %d start = %v, want %v", i+1, res.Stats[i].Start, wantStart)
		}
	}
}

func TestConservativeNeverDelaysEarlierReservations(t *testing.T) {
	// Property-style check on random workloads: under conservative
	// backfilling with exact estimates, every job must start no later
	// than it would under plain FCFS (conservative backfilling dominates
	// no-backfilling for each job when estimates are exact and priorities
	// are FCFS).
	for seed := uint64(0); seed < 4; seed++ {
		jobs := randomJobs(dist.New(seed), 120, 16)
		plain := mustRun(t, Platform{Cores: 16}, jobs, Options{Policy: sched.FCFS()})
		cons := mustRun(t, Platform{Cores: 16}, jobs,
			Options{Policy: sched.FCFS(), Backfill: BackfillConservative})
		for i := range jobs {
			if cons.Stats[i].Start > plain.Stats[i].Start+schedcore.TimeEps {
				t.Fatalf("seed %d: job %d delayed by conservative backfilling: %v > %v",
					seed, i, cons.Stats[i].Start, plain.Stats[i].Start)
			}
		}
	}
}

func TestEASYSJBFOrder(t *testing.T) {
	// Two safe backfill candidates are waiting when cores first free up at
	// t=50; only one fits. Classic EASY takes them in queue (FCFS) order
	// and picks C; SJBF (BackfillOrder = SPT) picks the shorter D.
	jobs := []workload.Job{
		job(1, 0, 50, 2),  // A1: machine half busy until 50
		job(2, 0, 120, 2), // A2: other half until 120
		job(3, 5, 100, 4), // B: blocked head, shadow = 120, extra = 0
		job(4, 10, 70, 2), // C: safe (50+70 = 120 <= shadow), queued first
		job(5, 11, 30, 2), // D: safe (50+30 = 80), shorter
	}
	classic := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), Backfill: BackfillEASY})
	if classic.Stats[3].Start != 50 || !classic.Stats[3].Backfilled {
		t.Errorf("classic EASY: C start = %v, want 50 (queue order)", classic.Stats[3].Start)
	}
	if classic.Stats[4].Start <= 50 {
		t.Errorf("classic EASY: D start = %v, want after C", classic.Stats[4].Start)
	}
	sjbf := mustRun(t, Platform{Cores: 4}, jobs,
		Options{Policy: sched.FCFS(), Backfill: BackfillEASY, BackfillOrder: sched.SPT()})
	if sjbf.Stats[4].Start != 50 || !sjbf.Stats[4].Backfilled {
		t.Errorf("SJBF: D start = %v, want 50 (shortest safe candidate)", sjbf.Stats[4].Start)
	}
	if sjbf.Stats[3].Start <= 50 {
		t.Errorf("SJBF: C start = %v, want after D", sjbf.Stats[3].Start)
	}
	// The head must not be delayed under either variant.
	if classic.Stats[2].Start != 120 || sjbf.Stats[2].Start != 120 {
		t.Errorf("head delayed: classic %v, sjbf %v", classic.Stats[2].Start, sjbf.Stats[2].Start)
	}
	checkNoOversubscription(t, 4, classic.Stats)
	checkNoOversubscription(t, 4, sjbf.Stats)
}

func TestSJBFInvariantsOnRandomWorkloads(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		jobs := randomJobs(dist.New(400+seed), 150, 16)
		res := mustRun(t, Platform{Cores: 16}, jobs, Options{
			Policy: sched.FCFS(), Backfill: BackfillEASY,
			BackfillOrder: sched.SPT(), UseEstimates: true,
		})
		checkNoOversubscription(t, 16, res.Stats)
		for i, s := range res.Stats {
			if s.Start < s.Job.Submit {
				t.Fatalf("seed %d: job %d started before submit", seed, i)
			}
		}
	}
}

func TestBackfillModeString(t *testing.T) {
	if BackfillNone.String() != "none" || BackfillEASY.String() != "easy" ||
		BackfillConservative.String() != "conservative" {
		t.Error("mode names wrong")
	}
	if BackfillMode(9).String() == "" {
		t.Error("unknown mode must still render")
	}
}

func TestEASYZeroFreeNoPass(t *testing.T) {
	// When the machine is completely full, arrivals must not trigger
	// backfilling work (fast path); behavior must still be correct.
	jobs := []workload.Job{
		{ID: 1, Submit: 0, Runtime: 100, Estimate: 100, Cores: 4},
		{ID: 2, Submit: 1, Runtime: 10, Estimate: 10, Cores: 1},
	}
	res := mustRun(t, Platform{Cores: 4}, jobs, Options{Policy: sched.FCFS(), Backfill: BackfillEASY})
	if res.Stats[1].Start != 100 {
		t.Errorf("job 2 start = %v, want 100", res.Stats[1].Start)
	}
}

func TestBsldNaNSafety(t *testing.T) {
	if v := Bsld(math.Inf(1), 10, 10); !math.IsInf(v, 1) {
		t.Errorf("Bsld(inf) = %v", v)
	}
}
