package adaptive

import (
	"context"
	"math"
	"testing"

	"github.com/hpcsched/gensched/internal/online"
	"github.com/hpcsched/gensched/internal/sched"
	"github.com/hpcsched/gensched/internal/sim"
	"github.com/hpcsched/gensched/internal/telemetry"
	"github.com/hpcsched/gensched/internal/workload"
)

// loopTrace is the observable behavior of one full closed-loop run: every
// adaptation decision plus the final schedule metrics. Two runs that
// differ only in worker count must produce identical traces, bit for bit
// — the adaptive counterpart of the Runner's KeepSims bit-identity test.
type loopTrace struct {
	decisions []Decision
	metrics   online.Metrics
}

// driveLoop streams a drifting workload through a live online.Scheduler
// with a Controller closing the loop end to end: arrivals feed the
// observation window, completions come back as the scheduler starts jobs,
// adaptation rounds fire as the clock crosses each interval, and
// promotions hot-swap the scheduler's policy mid-stream — which in turn
// changes the schedule the next rounds observe. A non-nil sink
// instruments both the scheduler and the controller, feeding the golden
// trace differential.
func driveLoop(t *testing.T, jobs []workload.Job, incumbent sched.Policy, cfg Config, sink *telemetry.Sink) loopTrace {
	t.Helper()
	s, err := online.New(cfg.Cores, online.Options{
		Policy:   incumbent,
		Backfill: cfg.Backfill,
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTelemetry(sink)
	cfg.Telemetry = sink
	cfg.Queue = s.QueuedJobs // the digital twin replays the live backlog
	ctrl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	type completion struct {
		at float64
		id int
	}
	var pending []completion
	runtimeOf := make(map[int]float64, len(jobs))
	for _, j := range jobs {
		runtimeOf[j.ID] = j.Runtime
	}
	schedule := func(starts []online.Start) {
		for _, st := range starts {
			pending = append(pending, completion{at: st.Time + runtimeOf[st.ID], id: st.ID})
		}
	}

	next := 0
	for next < len(jobs) || len(pending) > 0 {
		tNext := math.Inf(1)
		if next < len(jobs) {
			tNext = jobs[next].Submit
		}
		for i := range pending {
			if pending[i].at < tNext {
				tNext = pending[i].at
			}
		}
		starts, err := s.AdvanceTo(tNext)
		if err != nil {
			t.Fatal(err)
		}
		schedule(starts)
		if d, err := ctrl.Tick(tNext, s.Policy()); err != nil {
			t.Fatal(err)
		} else if d != nil && d.Promoted {
			if err := s.SetPolicy(d.Policy); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < len(pending); i++ {
			if pending[i].at == tNext {
				if err := s.Complete(pending[i].id); err != nil {
					t.Fatal(err)
				}
				pending[i] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				i--
			}
		}
		for next < len(jobs) && jobs[next].Submit == tNext {
			if err := s.Submit(jobs[next]); err != nil {
				t.Fatal(err)
			}
			ctrl.Observe(jobs[next])
			next++
		}
		schedule(s.Flush())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	return loopTrace{decisions: ctrl.Decisions(), metrics: s.Metrics()}
}

// driftingJobs is big-job traffic for the first half and a small-job
// flood after, re-IDed into one stream.
func driftingJobs(seed uint64) []workload.Job {
	big := stream(seed, 96, 0, false)
	small := stream(seed+1, 512, big[len(big)-1].Submit, true)
	all := append(big, small...)
	for i := range all {
		all[i].ID = i + 1
	}
	return all
}

// TestLoopDeterministicAcrossWorkers is the end-to-end determinism
// differential: a fixed seed must yield the identical sequence of retrain
// instants, fitted expression strings and promotion decisions — and the
// identical final schedule — whether the loop's internal fan-outs run on
// one worker or eight.
func TestLoopDeterministicAcrossWorkers(t *testing.T) {
	jobs := driftingJobs(97)
	mkCfg := func(workers int) Config {
		cfg := testConfig(13)
		cfg.Interval = 21600
		cfg.MinDrift = 0.2
		cfg.Backfill = sim.BackfillEASY
		cfg.Workers = workers
		return cfg
	}
	a := driveLoop(t, jobs, stale(t), mkCfg(1), nil)
	b := driveLoop(t, jobs, stale(t), mkCfg(8), nil)

	if len(a.decisions) == 0 {
		t.Fatal("the loop never ran an adaptation round")
	}
	if len(a.decisions) != len(b.decisions) {
		t.Fatalf("decision counts differ: %d vs %d", len(a.decisions), len(b.decisions))
	}
	promoted := 0
	for i := range a.decisions {
		da, db := a.decisions[i], b.decisions[i]
		if da.At != db.At || da.Round != db.Round || da.Window != db.Window {
			t.Fatalf("decision %d instants differ: %+v vs %+v", i, da, db)
		}
		if da.Skipped != db.Skipped || da.Reason != db.Reason {
			t.Fatalf("decision %d outcomes differ: %q vs %q", i, da.Reason, db.Reason)
		}
		if da.Char != db.Char || !sameFloat(da.Drift, db.Drift) {
			t.Fatalf("decision %d characterizations differ:\n%+v\n%+v", i, da.Char, db.Char)
		}
		if da.Incumbent != db.Incumbent || da.IncumbentBsld != db.IncumbentBsld {
			t.Fatalf("decision %d incumbents differ: %s %.17g vs %s %.17g",
				i, da.Incumbent, da.IncumbentBsld, db.Incumbent, db.IncumbentBsld)
		}
		if len(da.Candidates) != len(db.Candidates) {
			t.Fatalf("decision %d candidate counts differ", i)
		}
		for k := range da.Candidates {
			if da.Candidates[k] != db.Candidates[k] {
				t.Fatalf("decision %d candidate %d differs:\n%+v\n%+v",
					i, k, da.Candidates[k], db.Candidates[k])
			}
		}
		if da.Promoted != db.Promoted || da.PolicyExpr != db.PolicyExpr {
			t.Fatalf("decision %d promotions differ: (%v %q) vs (%v %q)",
				i, da.Promoted, da.PolicyExpr, db.Promoted, db.PolicyExpr)
		}
		if da.Promoted {
			promoted++
		}
	}
	if promoted == 0 {
		t.Fatal("the drifting stream never promoted a policy; the differential exercised nothing interesting")
	}
	if a.metrics != b.metrics {
		t.Fatalf("final schedule metrics differ:\n%+v\n%+v", a.metrics, b.metrics)
	}
}

// sameFloat is float equality that also matches +Inf against +Inf (the
// first round's drift).
func sameFloat(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

// TestShadowEvalAcrossWorkers pins the twin replay: every policy's
// AveBsld equals sim.Run's bit for bit and does not depend on how many
// workers run the replays.
func TestShadowEvalAcrossWorkers(t *testing.T) {
	win := driftingJobs(41)[:300]
	policies := []sched.Policy{stale(t), sched.FCFS(), sched.SPT(), sched.F1(), sched.F3(), sched.WFP3()}
	cfg := testConfig(3)
	cfg.Backfill = sim.BackfillEASY
	cfg.BackfillOrder = sched.SPT()
	cfg.UseEstimates = true
	cfg.Tau = 30
	var got [2][]float64
	for i, workers := range []int{1, 8} {
		cfg.Workers = workers
		bslds, err := shadowEval(context.Background(), win, cfg, policies)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = bslds
	}
	for k, p := range policies {
		res, err := sim.Run(sim.Platform{Cores: cfg.Cores}, win, sim.Options{
			Policy: p, UseEstimates: true, Backfill: sim.BackfillEASY, BackfillOrder: sched.SPT(), Tau: 30,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Float64bits(res.AVEbsld)
		if math.Float64bits(got[0][k]) != want || math.Float64bits(got[1][k]) != want {
			t.Errorf("%s: shadow AveBsld %v (1 worker), %v (8 workers); sim.Run %v",
				p.Name(), got[0][k], got[1][k], res.AVEbsld)
		}
	}
}
