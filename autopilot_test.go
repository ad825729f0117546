package gensched

import (
	"strings"
	"testing"
)

func TestAutopilotValidation(t *testing.T) {
	c, err := NewCluster(16, ClusterConfig{Policy: MustPolicy("FCFS")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Autopilot(c, AutopilotConfig{}); err == nil {
		t.Fatal("autopilot without an interval accepted")
	}
	// A cluster supports one loop: a second attach must fail loudly, not
	// silently replace the first (whose handle would then report the
	// impostor's statistics).
	if _, err := Autopilot(c, AutopilotConfig{Interval: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := Autopilot(c, AutopilotConfig{Interval: 200}); err == nil {
		t.Fatal("second autopilot silently replaced the first")
	}
}

func TestAutopilotOnCluster(t *testing.T) {
	c, err := NewCluster(16, ClusterConfig{Policy: MustPolicy("FCFS"), Backfill: BackfillEASY})
	if err != nil {
		t.Fatal(err)
	}
	loop, err := Autopilot(c, AutopilotConfig{
		Interval:  100,
		Window:    64,
		MinWindow: 8,
		Tuples:    1,
		Trials:    16,
		TopK:      1,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Stream a small deterministic workload through the live cluster; the
	// adaptation rounds ride on AdvanceTo.
	for i := 1; i <= 24; i++ {
		at := float64(i * 30)
		if _, err := c.AdvanceTo(at); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(Job{ID: i, Submit: at, Runtime: float64(60 + i%5*200), Cores: 1 + i%4}); err != nil {
			t.Fatal(err)
		}
		c.Flush()
	}
	if _, err := c.AdvanceTo(1e4); err != nil {
		t.Fatal(err)
	}
	ds := loop.Decisions()
	if len(ds) == 0 {
		t.Fatal("autopilot never ticked")
	}
	if loop.Rounds() < 1 {
		t.Fatalf("autopilot never retrained: %+v", ds)
	}
	last := ds[len(ds)-1]
	if last.Incumbent == "" {
		t.Fatalf("decision carries no incumbent: %+v", last)
	}
	if loop.Promotions() > 0 && c.Status().Policy == "FCFS" {
		t.Fatal("promotion recorded but the cluster still runs FCFS")
	}
}

func TestTrainOnWindow(t *testing.T) {
	window := lublinTrace(t, 64, 0.5, 1.2, 42).Jobs
	if len(window) > 256 {
		window = window[:256]
	}
	cands, pols, err := TrainOnWindow(window, 64, ClusterConfig{Backfill: BackfillEASY}, AutopilotConfig{
		MinWindow: 16,
		Tuples:    1,
		Trials:    32,
		TopK:      2,
		Seed:      9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || len(cands) != len(pols) {
		t.Fatalf("%d candidates, %d policies", len(cands), len(pols))
	}
	for i, cand := range cands {
		if !strings.HasPrefix(pols[i].Name(), "W.") {
			t.Errorf("policy %d named %q", i, pols[i].Name())
		}
		// The textual form deploys through ParsePolicy — the round trip a
		// config file or the schedd policy endpoint performs.
		if _, err := ParsePolicy("DEPLOYED", cand.Expr); err != nil {
			t.Errorf("candidate %d expr %q does not deploy: %v", i, cand.Expr, err)
		}
		if cand.AveBsld < 1 {
			t.Errorf("candidate %d shadow AveBsld %g below 1", i, cand.AveBsld)
		}
	}
}
