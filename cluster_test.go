package gensched_test

import (
	"sync"
	"testing"

	gensched "github.com/hpcsched/gensched"
	"github.com/hpcsched/gensched/internal/sim"
)

func TestClusterLifecycle(t *testing.T) {
	c, err := gensched.NewCluster(4, gensched.ClusterConfig{
		Policy:   gensched.MustPolicy("FCFS"),
		Backfill: gensched.BackfillEASY,
		Check:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 1, Submit: 0, Runtime: 100, Estimate: 100, Cores: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 2, Submit: 0, Runtime: 40, Estimate: 40, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 3, Submit: 0, Runtime: 50, Estimate: 50, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	started := c.Flush()
	// FCFS+EASY at t=0: job 1 starts, job 2 blocks as head (shadow 100),
	// job 3 backfills beside job 1 (50 <= shadow, 1 core free).
	if len(started) != 2 || started[0].ID != 1 || started[1].ID != 3 || !started[1].Backfilled {
		t.Fatalf("flush started %+v, want jobs 1 and 3 (3 backfilled)", started)
	}
	st := c.Status()
	if st.Running != 2 || st.Queued != 1 || st.FreeCores != 0 {
		t.Fatalf("status: %+v", st)
	}
	for _, step := range []struct {
		at float64
		id int
	}{{50, 3}, {100, 1}, {140, 2}} {
		if _, err := c.AdvanceTo(step.at); err != nil {
			t.Fatal(err)
		}
		if err := c.Complete(step.id); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	m := c.Metrics()
	if m.Completed != 3 || m.Backfilled != 1 {
		t.Fatalf("metrics: %+v", m)
	}
	if c.Clock() != 140 {
		t.Errorf("clock = %v, want 140", c.Clock())
	}
	if err := c.Err(); err != nil {
		t.Errorf("invariant check tripped: %v", err)
	}
}

func TestClusterSwapPolicy(t *testing.T) {
	c, err := gensched.NewCluster(1, gensched.ClusterConfig{Policy: gensched.MustPolicy("FCFS")})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 1, Submit: 0, Runtime: 10, Estimate: 10, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if _, err := c.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 2, Submit: 1, Runtime: 99, Estimate: 99, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if _, err := c.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(gensched.Job{ID: 3, Submit: 2, Runtime: 5, Estimate: 5, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := c.SwapPolicy(gensched.MustPolicy("SPT")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(1); err != nil {
		t.Fatal(err)
	}
	started := c.Flush()
	if len(started) != 1 || started[0].ID != 3 {
		t.Fatalf("after SPT swap started %+v, want the short job 3", started)
	}
}

// TestClusterConcurrentAccess drives a Cluster from several goroutines
// under the race detector; each goroutine owns disjoint job IDs and only
// ever moves the shared clock forward.
func TestClusterConcurrentAccess(t *testing.T) {
	c, err := gensched.NewCluster(64, gensched.ClusterConfig{Policy: gensched.MustPolicy("SPT")})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := g*1000 + i
				if err := c.Submit(gensched.Job{ID: id, Runtime: 10, Estimate: 10, Cores: 1}); err != nil {
					t.Error(err)
					return
				}
				c.Flush()
				if err := c.Complete(id); err != nil {
					t.Error(err)
					return
				}
				c.Flush()
			}
		}(g)
	}
	wg.Wait()
	if m := c.Metrics(); m.Completed != 200 {
		t.Errorf("completed %d jobs, want 200", m.Completed)
	}
}

// TestReplayTraceMatchesSimulate pins the public streaming contract: a
// trace replayed through the online cluster equals a batch simulation.
func TestReplayTraceMatchesSimulate(t *testing.T) {
	w, err := gensched.Lublin().Build(gensched.WorkloadRequest{Cores: 64, Days: 0.5, Sequences: 1, Load: 1.0, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	jobs := w.Windows[0]
	cfg := gensched.ClusterConfig{
		Policy:   gensched.MustPolicy("F1"),
		Backfill: gensched.BackfillEASY,
		Check:    true,
	}
	got, err := gensched.ReplayTrace(64, jobs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(sim.Platform{Cores: 64}, jobs, gensched.SimOptions{
		Policy: cfg.Policy, Backfill: cfg.Backfill,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.AVEbsld != want.AVEbsld || got.Makespan != want.Makespan ||
		got.Backfilled != want.Backfilled || got.MaxQueueLen != want.MaxQueueLen {
		t.Errorf("online replay != batch:\n got  %+v\n want %+v",
			summary(got), summary(want))
	}
	for i := range got.Stats {
		if got.Stats[i].Start != want.Stats[i].Start {
			t.Fatalf("job %d start %v != %v", got.Stats[i].Job.ID, got.Stats[i].Start, want.Stats[i].Start)
		}
	}
}

func summary(r *gensched.SimResult) map[string]float64 {
	return map[string]float64{
		"AVEbsld": r.AVEbsld, "Makespan": r.Makespan,
		"Backfilled": float64(r.Backfilled), "MaxQueueLen": float64(r.MaxQueueLen),
	}
}
