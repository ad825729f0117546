package sim

import (
	"errors"
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/dist"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/schedcore"
	"github.com/hpcsched/gensched/internal/workload"
)

// replayJobs is randomJobs with a third of the estimates cut below the
// runtime (so KillAtEstimate truncates) and the order shuffled (so the
// engine's arrival sort runs).
func replayJobs(seed uint64, n, maxCores int) []workload.Job {
	rng := dist.New(seed)
	jobs := randomJobs(rng, n, maxCores)
	for i := range jobs {
		if i%3 == 0 {
			jobs[i].Estimate = jobs[i].Runtime * (0.2 + 0.6*rng.Float64())
		}
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestRunAveBsldMatchesRun pins the pooled replay to Run bit for bit over
// every backfill mode × estimates × KillAtEstimate × τ, for a static, a
// time-varying and an ID-keyed policy.
func TestRunAveBsldMatchesRun(t *testing.T) {
	const cores = 32
	jobs := replayJobs(11, 150, cores)
	rank := make(map[int]int, len(jobs))
	for i := range jobs {
		rank[jobs[i].ID] = (jobs[i].ID * 7919) % 1009
	}
	policies := []sched.Policy{sched.F1(), sched.WFP3(), sched.FixedOrder(rank)}
	for _, pol := range policies {
		for _, mode := range []BackfillMode{BackfillNone, BackfillEASY, BackfillConservative} {
			for _, est := range []bool{false, true} {
				for _, kill := range []bool{false, true} {
					for _, tau := range []float64{0, 1, DefaultTau, 300} {
						opt := Options{Policy: pol, Backfill: mode, UseEstimates: est, KillAtEstimate: kill, Tau: tau}
						res := mustRun(t, Platform{Cores: cores}, jobs, opt)
						got, err := RunAveBsld(Platform{Cores: cores}, jobs, opt)
						if err != nil {
							t.Fatal(err)
						}
						if !sameBits(got, res.AVEbsld) {
							t.Fatalf("%s %s est=%v kill=%v tau=%g: RunAveBsld %v, Run %v",
								pol.Name(), mode, est, kill, tau, got, res.AVEbsld)
						}
					}
				}
			}
		}
	}
}

// TestRunAveBsldEdgeCases: empty input, Check mode and the Run errors.
func TestRunAveBsldEdgeCases(t *testing.T) {
	p := Platform{Cores: 8}
	got, err := RunAveBsld(p, nil, Options{Policy: sched.FCFS()})
	if err != nil || got != mustRun(t, p, nil, Options{Policy: sched.FCFS()}).AVEbsld {
		t.Errorf("empty input: %v, %v; want Run's AVEbsld", got, err)
	}
	jobs := replayJobs(3, 40, 8)
	opt := Options{Policy: sched.SPT(), Backfill: BackfillEASY, Check: true}
	if got, err := RunAveBsld(p, jobs, opt); err != nil || !sameBits(got, mustRun(t, p, jobs, opt).AVEbsld) {
		t.Errorf("checked replay: %v, %v", got, err)
	}
	if _, err := RunAveBsld(p, jobs, Options{}); !errors.Is(err, ErrNoPolicy) {
		t.Errorf("no policy: err = %v, want ErrNoPolicy", err)
	}
	if _, err := RunAveBsld(Platform{}, jobs, Options{Policy: sched.FCFS()}); !errors.Is(err, ErrNoCores) {
		t.Errorf("no cores: err = %v, want ErrNoCores", err)
	}
	if _, err := RunAveBsld(Platform{Cores: 2}, jobs, Options{Policy: sched.FCFS()}); err == nil {
		t.Error("oversized job accepted")
	}
}

// TestReplayReusesEngine runs A, then B on a different machine size and
// configuration, then A again, all on one engine: nothing of a previous
// replay may leak into the next.
func TestReplayReusesEngine(t *testing.T) {
	type run struct {
		p    Platform
		jobs []workload.Job
		opt  Options
	}
	a := run{Platform{Cores: 64}, replayJobs(21, 200, 64),
		Options{Policy: sched.F1(), Backfill: BackfillEASY, UseEstimates: true, BackfillOrder: sched.SPT()}}
	b := run{Platform{Cores: 16}, replayJobs(22, 90, 16),
		Options{Policy: sched.WFP3(), Backfill: BackfillConservative, KillAtEstimate: true, UseEstimates: true, Tau: 60}}
	e := schedcore.NewEngine(1, schedcore.Config{Policy: sched.FCFS()})
	for i, r := range []run{a, b, a} {
		want := mustRun(t, r.p, r.jobs, r.opt).AVEbsld
		if got := replayAveBsld(e, r.p, r.jobs, r.opt); !sameBits(got, want) {
			t.Fatalf("replay %d on a reused engine: %v, want %v", i, got, want)
		}
	}
}

// TestRunAveBsldAllocatesNothing: once its engine is warm, a replay
// allocates nothing, sorted input or not — on an engine of its own and,
// except under the race detector, through the pool.
func TestRunAveBsldAllocatesNothing(t *testing.T) {
	p := Platform{Cores: 64}
	opt := Options{Policy: sched.F2(), Backfill: BackfillEASY, UseEstimates: true}
	shuffled := replayJobs(5, 300, 64)
	sorted := randomJobs(dist.New(5), 300, 64)
	e := schedcore.NewEngine(p.Cores, coreConfig(opt))
	for _, jobs := range [][]workload.Job{sorted, shuffled} {
		own := func() { replayAveBsld(e, p, jobs, opt) }
		pooled := func() {
			if _, err := RunAveBsld(p, jobs, opt); err != nil {
				t.Fatal(err)
			}
		}
		own()
		pooled() // warm both engines
		if allocs := testing.AllocsPerRun(20, own); allocs != 0 {
			t.Errorf("warm replay allocates %.1f objects/op, want 0", allocs)
		}
		if raceEnabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, pooled); allocs != 0 {
			t.Errorf("warm RunAveBsld allocates %.1f objects/op, want 0", allocs)
		}
	}
}
